// Package training simulates the distributed training loop of Section V:
// per-layer forward and backward kernels on every NPU's compute stream,
// per-layer weight-gradient all-reduces issued during back-propagation
// (LIFO-prioritized), the cross-iteration dependency that exposes
// communication (forward of layer i in iteration k waits for layer i's
// all-reduce from iteration k-1), and DLRM's blocking all-to-all embedding
// exchanges. The metrics are the paper's: total computation time, exposed
// communication time, and their sum, the iteration time.
//
// Execution is graph-driven: the per-layer program is lowered into the
// internal/graph execution IR (graph.FromModel) and replayed by the graph
// executor — the simulator's single training engine, shared with pipeline
// schedules and hand-written graph traces. TestTrainingGoldenLegacy pins
// the lowered programs bit-identical to the pre-graph step driver.
package training

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/graph"
	"acesim/internal/npu"
	"acesim/internal/trace"
	"acesim/internal/workload"
)

// Schedule selects the communication scheduling policy (Table VI).
type Schedule uint8

// Scheduling policies.
const (
	// Overlap issues each layer's all-reduce as soon as its weight
	// gradient is computed, overlapping communication with the rest of
	// back-propagation and the next forward pass.
	Overlap Schedule = iota
	// NoOverlap gathers all gradients and issues one fused collective
	// at the end of back-propagation, then blocks (BaselineNoOverlap).
	NoOverlap
)

// Config tunes a training run.
type Config struct {
	Iterations int // the paper simulates 2
	Schedule   Schedule
	// DLRMOptimized enables the Fig 12 optimization: embedding
	// lookup/update for the next/previous iteration run on a spare
	// 80 GB/s memory allocation and 1 SM, off the critical path, and
	// the forward all-to-all is issued as soon as the prefetch lookup
	// finishes.
	DLRMOptimized bool
	// SideMemGBps is the memory allocation of the optimized embedding
	// stream (80 GB/s in the paper's experiment).
	SideMemGBps float64
}

// DefaultConfig returns the paper's two-iteration setup.
func DefaultConfig() Config {
	return Config{Iterations: 2, Schedule: Overlap, SideMemGBps: 80}
}

// Plans carries the topology-aware collective plans the loop issues.
// It is the graph executor's plan set; the alias keeps the historical
// training-facing name.
type Plans = graph.Plans

// Result summarizes one simulated run (per node; the system is
// symmetric, node 0 is reported).
type Result struct {
	// IterTime is the wall time of the whole run (Config.Iterations).
	IterTime des.Time
	// TotalCompute is the busy time of the main compute stream.
	TotalCompute des.Time
	// ExposedComm = IterTime - TotalCompute: time the training loop sat
	// blocked on communication.
	ExposedComm des.Time
	// FwdWindows / BwdWindows are the [start, end) spans of each
	// iteration's forward and backward passes on node 0 (Fig 9b).
	FwdWindows []Window
	BwdWindows []Window
	// Collectives is the number of collective operations issued per node.
	Collectives int
}

// Window is a half-open time interval.
type Window struct{ Start, End des.Time }

// Dur returns the window length.
func (w Window) Dur() des.Time { return w.End - w.Start }

// Runner couples a collectives runtime with per-node compute engines and
// executes a workload's training program on every node.
type Runner struct {
	Eng      *des.Engine
	RT       *collectives.Runtime
	Computes []*npu.Compute // one per node
	Plans    Plans
	Cfg      Config
	// Stream is the collective issue stream this runner's program uses.
	// Concurrent jobs sharing one runtime must use distinct streams.
	Stream collectives.StreamID
	// Job names the job in multi-job runs; it prefixes every driver event
	// tag ("<job>/ar.<it>.<layer>") so tag namespaces of co-running jobs
	// can never collide. Empty for classic single-job runs.
	Job string
}

// Launch is a started (but not yet simulated) training job: every node's
// program has been lowered to a graph and advanced to its first blocking
// point. In a multi-job run, start every job's Launch, drive the shared
// engine to completion once, then collect each Result.
type Launch struct {
	run *graph.Run

	// tracer/track emit node 0's fwd/bwd step windows as spans when the
	// run is traced, labelled fwd.<i>/bwd.<i> (steps[i], registered at
	// Start); emitted guards against double emission when Result is read
	// more than once.
	tracer  *trace.Tracer
	track   trace.TrackID
	steps   [][2]trace.LabelID
	emitted bool
}

// Start lowers the model onto the graph executor and launches it without
// running the engine.
func (r *Runner) Start(m *workload.Model) (*Launch, error) {
	if len(r.Computes) != r.RT.Nodes() {
		return nil, fmt.Errorf("training: %d compute engines for %d nodes", len(r.Computes), r.RT.Nodes())
	}
	if r.Cfg.Iterations <= 0 {
		return nil, fmt.Errorf("training: non-positive iteration count")
	}
	g, err := graph.FromModel(m, graph.ModelConfig{
		Iterations:    r.Cfg.Iterations,
		Overlap:       r.Cfg.Schedule == Overlap,
		DLRMOptimized: r.Cfg.DLRMOptimized,
	}, r.RT.Nodes())
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	x := &graph.Executor{
		Eng:      r.Eng,
		RT:       r.RT,
		Computes: r.Computes,
		Plans:    r.Plans,
		Stream:   r.Stream,
		Job:      r.Job,
		SideGBps: r.Cfg.SideMemGBps,
	}
	run, err := x.Start(g)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	l := &Launch{run: run}
	if tr := r.Eng.Tracer(); tr != nil {
		name := "steps"
		if r.Job != "" {
			name = r.Job + "/steps"
		}
		l.tracer = tr
		l.track = tr.RegisterTrack(name, -1, trace.KindOther)
		l.steps = make([][2]trace.LabelID, r.Cfg.Iterations)
		for i := range l.steps {
			l.steps[i] = [2]trace.LabelID{
				tr.Label(trace.CatStep, fmt.Sprintf("fwd.%d", i)),
				tr.Label(trace.CatStep, fmt.Sprintf("bwd.%d", i)),
			}
		}
	}
	return l, nil
}

// Done reports whether every node's program has finished.
func (l *Launch) Done() bool { return l.run.Finished() }

// Cancel aborts the launch's remaining compute (job departure); see
// graph.Run.Cancel for the abort-compute / flush-communication semantics.
func (l *Launch) Cancel() { l.run.Cancel() }

// windows pairs a rank's start/end marks into half-open intervals.
func windows(marks map[string][]des.Time, start, end string) []Window {
	starts, ends := marks[start], marks[end]
	n := len(starts)
	if len(ends) < n {
		n = len(ends)
	}
	ws := make([]Window, n)
	for i := 0; i < n; i++ {
		ws[i] = Window{Start: starts[i], End: ends[i]}
	}
	return ws
}

// Result returns node 0's metrics. It errors if the engine drained while
// some node was still blocked (deadlock).
func (l *Launch) Result() (Result, error) {
	gres, err := l.run.Result()
	if err != nil {
		return Result{}, fmt.Errorf("training: %w", err)
	}
	r0 := gres.Ranks[0]
	res := Result{
		IterTime: r0.FinishedAt,
		// Per-rank accounting, not Compute.BusyTime(): on a shared
		// fabric the compute stream also carries co-running jobs'
		// kernels, which must not count as this job's compute.
		TotalCompute: r0.ComputeBusy,
		FwdWindows:   windows(r0.Marks, graph.MarkFwdStart, graph.MarkFwdEnd),
		BwdWindows:   windows(r0.Marks, graph.MarkBwdStart, graph.MarkBwdEnd),
		Collectives:  r0.Issued,
	}
	res.ExposedComm = res.IterTime - res.TotalCompute
	if res.ExposedComm < 0 {
		res.ExposedComm = 0
	}
	if l.tracer != nil && !l.emitted {
		l.emitted = true
		for i, w := range res.FwdWindows {
			l.tracer.Span(l.track, l.steps[i][0], int64(w.Start), int64(w.End), 0)
		}
		for i, w := range res.BwdWindows {
			l.tracer.Span(l.track, l.steps[i][1], int64(w.Start), int64(w.End), 0)
		}
	}
	return res, nil
}

// Run executes the model for Cfg.Iterations on every node and returns
// node 0's metrics. It drives the engine to completion.
func (r *Runner) Run(m *workload.Model) (Result, error) {
	l, err := r.Start(m)
	if err != nil {
		return Result{}, err
	}
	r.Eng.Run()
	return l.Result()
}
