package graph

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/npu"
	"acesim/internal/trace"
)

// Plans carries the topology-aware plans full-fabric collectives execute
// on (the paper's hierarchical all-reduce and direct all-to-all).
type Plans struct {
	AllReduce collectives.Plan
	AllToAll  collectives.Plan
}

// SideStreamGBps is the memory bandwidth of the spare-resource side
// stream Side compute ops run on: Fig 12's 80 GB/s allocation.
const SideStreamGBps = 80

// Executor binds the graph IR to one simulated platform: an engine, a
// collectives runtime, one compute stream per rank, and the collective
// plans. It is the simulator's single execution engine: training jobs
// (training.Start lowers each per-layer program with FromModel), pipeline
// schedules and hand-written graph traces all start on it.
type Executor struct {
	Eng      *des.Engine
	RT       *collectives.Runtime
	Computes []*npu.Compute
	Plans    Plans
	// Stream is the collective issue stream graph collectives use;
	// concurrent jobs sharing one runtime must use distinct streams.
	Stream collectives.StreamID
	// Job prefixes every collective name ("<job>/<name>") in multi-job
	// runs, for debuggable DebugState output. Matching is positional, so
	// the prefix is cosmetic but keeps co-running jobs tellable apart.
	Job string
}

// RankResult is one rank's measured outcome.
type RankResult struct {
	// FinishedAt is when the rank's program completed (its Final op, or
	// its last op when no Final is marked).
	FinishedAt des.Time
	// ComputeBusy is the rank's kernel time on the main compute stream
	// (side-stream transfers excluded, as in the legacy accounting).
	ComputeBusy des.Time
	// Issued counts the collective operations the rank issued.
	Issued int
	// Marks records each mark label's execution times in occurrence
	// order.
	Marks map[string][]des.Time
}

// Result is the outcome of a completed graph run.
type Result struct {
	Ranks []RankResult
	// Span is the latest rank finish time.
	Span des.Time
}

// MaxComputeBusy returns the busiest rank's compute time — the
// denominator of the graph-level exposed-communication metric (Span −
// MaxComputeBusy covers both exposed communication and pipeline bubbles).
func (res Result) MaxComputeBusy() des.Time {
	var max des.Time
	for i := range res.Ranks {
		if b := res.Ranks[i].ComputeBusy; b > max {
			max = b
		}
	}
	return max
}

// Exposed returns Span − MaxComputeBusy, clamped at zero.
func (res Result) Exposed() des.Time {
	e := res.Span - res.MaxComputeBusy()
	if e < 0 {
		e = 0
	}
	return e
}

// Run is a started (but not necessarily simulated) graph execution.
// Start schedules the dependency-free ops; drive the engine (possibly
// sharing it with co-running jobs), then collect Result.
type Run struct {
	x *Executor
	g *Graph

	// order maps schedule positions to op indices in g.Ops; posOf is its
	// inverse. Op i's dependents are users[userOff[i]:userOff[i+1]] (op
	// indices) and remaining[i] counts its unmet deps.
	order     []int
	posOf     []int
	userOff   []int
	users     []int
	remaining []int
	done      []bool // by position

	ranks    []rankState
	finished int

	ready    idHeap // same-instant worklist, ordered by schedule position
	draining bool
	// cancelled (job departure): see Cancel.
	cancelled bool

	groups map[string]*groupMatch

	// Tracing state (nil/empty when the engine has no tracer): one track
	// per rank, per-position span labels ("name#ID" and the op's
	// category) registered at Start so emission allocates nothing, and
	// per-position dispatch times.
	tracer    *trace.Tracer
	opTracks  []trace.TrackID
	opLabels  []trace.LabelID
	startedAt []des.Time
}

// rankState is the per-rank bookkeeping.
type rankState struct {
	opsLeft     int
	hasFinal    bool
	finished    bool
	finishedAt  des.Time
	computeBusy des.Time
	issued      int
	marks       map[string][]des.Time
}

// Start validates the graph against the executor's platform and launches
// it: every dependency-free op is executed (in stable schedule order),
// and the run proceeds as the engine fires completions. It does not run
// the engine.
func (x *Executor) Start(g *Graph) (*Run, error) {
	p, err := g.plan()
	if err != nil {
		return nil, err
	}
	if x.RT == nil || x.Eng == nil {
		return nil, fmt.Errorf("graph: executor missing engine or runtime")
	}
	if g.Ranks != x.RT.Nodes() {
		return nil, fmt.Errorf("graph: %q targets %d ranks, platform has %d nodes", g.Name, g.Ranks, x.RT.Nodes())
	}
	if len(x.Computes) != g.Ranks {
		return nil, fmt.Errorf("graph: %d compute engines for %d ranks", len(x.Computes), g.Ranks)
	}
	for i := range g.Ops {
		op := &g.Ops[i]
		if op.Kind != OpCollective || !g.fullGroup(op) {
			continue
		}
		switch op.Coll {
		case collectives.AllReduce:
			if err := x.Plans.AllReduce.Validate(); err != nil {
				return nil, fmt.Errorf("graph: op %d needs an all-reduce plan: %w", op.ID, err)
			}
		case collectives.AllToAll:
			if err := x.Plans.AllToAll.Validate(); err != nil {
				return nil, fmt.Errorf("graph: op %d needs an all-to-all plan: %w", op.ID, err)
			}
		}
	}

	n := len(g.Ops)
	r := &Run{
		x: x, g: g,
		order:     p.order,
		posOf:     make([]int, n),
		userOff:   p.userOff,
		users:     p.users,
		remaining: make([]int, n),
		done:      make([]bool, n),
		ranks:     make([]rankState, g.Ranks),
		groups:    make(map[string]*groupMatch),
	}
	for pos, i := range p.order {
		r.posOf[i] = pos
	}
	for i := range g.Ops {
		op := &g.Ops[i]
		r.remaining[i] = len(op.Deps)
		rs := &r.ranks[op.Rank]
		rs.opsLeft++
		if op.Final {
			rs.hasFinal = true
		}
	}
	// Ranks with no ops (legal: a graph may only occupy part of the
	// fabric) are finished from the start.
	for i := range r.ranks {
		if r.ranks[i].opsLeft == 0 {
			r.ranks[i].finished = true
			r.finished++
		}
	}
	if tr := x.Eng.Tracer(); tr != nil {
		r.tracer = tr
		r.opTracks = make([]trace.TrackID, g.Ranks)
		for rank := 0; rank < g.Ranks; rank++ {
			r.opTracks[rank] = tr.RegisterTrack(r.tag(fmt.Sprintf("rank%d/ops", rank)), rank, trace.KindOther)
		}
		r.opLabels = make([]trace.LabelID, len(r.order))
		r.startedAt = make([]des.Time, len(r.order))
		for p := range r.order {
			if op := r.opAt(p); op.Kind != OpMark {
				r.opLabels[p] = tr.Label(opCategory(op), fmt.Sprintf("%s#%d", op.Name, op.ID))
			}
		}
	}
	for pos, i := range r.order {
		if r.remaining[i] == 0 {
			r.ready.push(pos)
		}
	}
	r.pump()
	return r, nil
}

func (r *Run) opAt(pos int) *Op { return &r.g.Ops[r.order[pos]] }

// opCategory classifies an op's span. Comm ops fold into the overlap
// accounting (issued-but-unfinished communication is exactly what can
// be exposed); main-stream compute ops do not — the npu kernel spans
// already carry the exact busy intervals, and double-counting queue
// time would inflate compute.
func opCategory(op *Op) string {
	switch {
	case op.Kind == OpCollective || op.Kind == OpSend:
		return trace.CatComm
	case op.Kind == OpCompute && op.Side:
		return trace.CatSide
	}
	return trace.CatOp
}

// Cancel aborts the run's remaining compute, modeling a job departing the
// platform mid-run: ops dispatched after the cancel complete in zero time,
// so the graph unwinds without occupying the engine — while collective ops
// still issue and pay their full communication cost. Flushing outstanding
// communication is deliberate: the runtime's SPMD contract needs every
// rank's issue sequence to complete, and draining admitted chunks keeps a
// shared admission window from wedging co-running jobs ("abort compute,
// flush outstanding communication"). Ops already in flight keep their
// original completion time.
func (r *Run) Cancel() { r.cancelled = true }

// tag applies the executor's job namespace to a collective name.
func (r *Run) tag(name string) string {
	if r.x.Job == "" {
		return name
	}
	return r.x.Job + "/" + name
}

// pump drains the ready worklist in schedule order. Ops that complete
// synchronously (marks) feed their dependents back into the same drain.
func (r *Run) pump() {
	if r.draining {
		return
	}
	r.draining = true
	for r.ready.len() > 0 {
		r.exec(r.ready.pop())
	}
	r.draining = false
}

// exec starts the op at the given schedule position.
func (r *Run) exec(pos int) {
	if r.tracer != nil {
		r.startedAt[pos] = r.x.Eng.Now()
	}
	op := r.opAt(pos)
	rs := &r.ranks[op.Rank]
	switch op.Kind {
	case OpCompute:
		if r.cancelled {
			// Departed job: remaining compute is abandoned and completes in
			// zero time (the Mark fast path), unwinding the graph without
			// occupying the engine.
			r.opDone(pos)
			return
		}
		if op.Side {
			r.x.Eng.After(des.ByteDur(op.Bytes, SideStreamGBps), func() { r.opDone(pos) })
			return
		}
		k := npu.Kernel{Name: op.Name, MACs: op.MACs, Bytes: op.Bytes, MaxGBps: op.MaxGBps}
		rs.computeBusy += r.x.Computes[op.Rank].Run(k, func() { r.opDone(pos) })
	case OpCollective:
		rs.issued++
		if r.g.fullGroup(op) && (op.Coll == collectives.AllReduce || op.Coll == collectives.AllToAll) {
			plan := r.x.Plans.AllReduce
			if op.Coll == collectives.AllToAll {
				plan = r.x.Plans.AllToAll
			}
			spec := collectives.Spec{
				Kind: op.Coll, Bytes: op.Bytes, Plan: plan,
				Name: r.tag(op.Name), PrioBias: op.PrioBias,
			}
			r.x.RT.IssueOn(r.x.Stream, noc.NodeID(op.Rank), spec, func() { r.opDone(pos) })
			return
		}
		r.groupIssue(pos, op)
	case OpSend:
		if r.cancelled {
			r.opDone(pos)
			return
		}
		r.x.RT.SendP2P(noc.NodeID(op.Rank), noc.NodeID(op.Dst), op.Bytes, func() { r.opDone(pos) })
	case OpMark:
		if rs.marks == nil {
			rs.marks = make(map[string][]des.Time)
		}
		rs.marks[op.Name] = append(rs.marks[op.Name], r.x.Eng.Now())
		r.opDone(pos)
	}
}

// opDone records the op's completion, finishes its rank if it was the
// terminal op, and releases dependents.
func (r *Run) opDone(pos int) {
	if r.done[pos] {
		panic(fmt.Sprintf("graph: op %d completed twice", r.opAt(pos).ID))
	}
	r.done[pos] = true
	op := r.opAt(pos)
	if r.tracer != nil && op.Kind != OpMark {
		// Spans cover dispatch -> completion, i.e. queueing included.
		r.tracer.Span(r.opTracks[op.Rank], r.opLabels[pos],
			int64(r.startedAt[pos]), int64(r.x.Eng.Now()), op.Bytes)
	}
	rs := &r.ranks[op.Rank]
	rs.opsLeft--
	if !rs.finished && (op.Final || (!rs.hasFinal && rs.opsLeft == 0)) {
		rs.finished = true
		rs.finishedAt = r.x.Eng.Now()
		r.finished++
	}
	i := r.order[pos]
	for _, j := range r.users[r.userOff[i]:r.userOff[i+1]] {
		r.remaining[j]--
		if r.remaining[j] == 0 {
			r.ready.push(r.posOf[j])
		}
	}
	r.pump()
}

// Finished reports whether every rank's program has completed.
func (r *Run) Finished() bool { return r.finished == len(r.ranks) }

// Result collects the per-rank outcomes. It errors if the engine drained
// while some rank was still blocked (deadlock).
func (r *Run) Result() (Result, error) {
	if !r.Finished() {
		return Result{}, fmt.Errorf("graph: %d/%d ranks finished (deadlock)", r.finished, len(r.ranks))
	}
	res := Result{Ranks: make([]RankResult, len(r.ranks))}
	for i := range r.ranks {
		rs := &r.ranks[i]
		res.Ranks[i] = RankResult{
			FinishedAt:  rs.finishedAt,
			ComputeBusy: rs.computeBusy,
			Issued:      rs.issued,
			Marks:       rs.marks,
		}
		if rs.finishedAt > res.Span {
			res.Span = rs.finishedAt
		}
	}
	return res, nil
}
