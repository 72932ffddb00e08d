package collectives

import (
	"fmt"

	"acesim/internal/core"
	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/trace"
)

// StreamID names one issue stream of a multi-job runtime. Each concurrent
// job owns one stream; the classic single-job runtime uses stream 0.
type StreamID int

// Arbitration selects how a node's endpoint admission slots are shared
// between the chunks of concurrent streams.
type Arbitration uint8

// Arbitration policies.
const (
	// ArbLIFO is the paper's policy extended across jobs: one priority
	// order over all pending chunks, most recently issued collective
	// first (Section V). With a single stream this is exactly the
	// original scheduler.
	ArbLIFO Arbitration = iota
	// ArbRoundRobin grants admission slots to streams in rotation
	// (fair-share across jobs); within a stream chunks keep the LIFO
	// order.
	ArbRoundRobin
)

// String names the policy.
func (a Arbitration) String() string {
	switch a {
	case ArbLIFO:
		return "lifo"
	case ArbRoundRobin:
		return "round-robin"
	}
	return "unknown"
}

// ParseArbitration resolves a policy name ("lifo" or "round-robin"/"rr";
// empty defaults to lifo).
func ParseArbitration(s string) (Arbitration, error) {
	switch s {
	case "", "lifo":
		return ArbLIFO, nil
	case "round-robin", "roundrobin", "rr":
		return ArbRoundRobin, nil
	}
	return 0, fmt.Errorf("collectives: unknown arbitration %q (want lifo or round-robin)", s)
}

// Config tunes the chunk-pipelined runtime (Table III granularity).
// All sizes are bytes.
type Config struct {
	// ChunkBytes is the target chunk size in bytes (64 KiB, Table III).
	ChunkBytes int64
	// MaxChunks caps the chunks per collective; large payloads use larger
	// chunks instead of more of them (simulation fidelity knob).
	MaxChunks int
	// MaxChunkBytes is the endpoint's ceiling on a single chunk (an ACE
	// SRAM partition must hold a whole chunk). 0 means unlimited.
	MaxChunkBytes int64
	// Window bounds the chunks a node pipelines concurrently.
	Window int
	// FIFOSched replaces the default LIFO collective priority with FIFO
	// (issue order). Used by the scheduling-policy ablation.
	FIFOSched bool
	// Streams is the number of independent issue streams (one per
	// concurrent job); <= 0 means one.
	Streams int
	// Arb selects how endpoint admission is shared across streams.
	Arb Arbitration
	// Recovery, when non-nil, enables the fabric's fault-aware send paths
	// and installs the drop-retry/park policy (see recovery.go). Required
	// for runs whose event track downs links; nil keeps the runtime on the
	// zero-overhead fault-free paths.
	Recovery *RecoveryPolicy
}

// DefaultConfig returns the paper's granularity defaults.
func DefaultConfig() Config {
	return Config{ChunkBytes: 64 << 10, MaxChunks: 64, Window: 16}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = d.ChunkBytes
	}
	if c.MaxChunks <= 0 {
		c.MaxChunks = d.MaxChunks
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.Streams <= 0 {
		c.Streams = 1
	}
	return c
}

// Spec describes one collective operation as issued by the training loop.
type Spec struct {
	Kind  Kind
	Bytes int64 // payload per node, bytes
	Plan  Plan
	Name  string
	// PrioBias lowers the collective's scheduling priority by the given
	// number of issue slots (LIFO mode). Prefetched collectives that are
	// issued early but not urgently use it to avoid starving gradients
	// the next layers need sooner.
	PrioBias int64
}

// Runtime executes collectives over a fabric of endpoints. Within one
// stream, all nodes must issue the same sequence of collectives
// (synchronous SPMD training); the runtime matches the i-th issue of every
// node on a stream to one global Collective. Concurrent jobs use distinct
// streams (Config.Streams) and contend for each node's endpoint under the
// configured Arbitration policy.
type Runtime struct {
	eng     *des.Engine
	net     *noc.Network
	eps     []core.Endpoint
	cfg     Config
	colls   []*Collective   // every collective, in creation order
	streams [][]*Collective // per-stream match lists
	scheds  []*nodeSched

	// tracer and the per-node collective tracks are wired at build time
	// when the engine carries a span collector; nil otherwise.
	tracer     *trace.Tracer
	collTracks []trace.TrackID

	// rec drives fault recovery; nil unless Config.Recovery is set.
	rec *recovery

	// Hybrid fast path (see hybrid.go). hyb is nil unless EnableHybrid
	// armed it; mirror is set on *shadow* runtimes whose ring deliveries
	// loop back to the sending node.
	hyb        *hybridState
	hybMode    Engine
	hybBlocked map[string]int
	mirror     bool
}

// NewRuntime wires the runtime to a fabric and per-node endpoints, and
// installs the endpoint forwarding hook for routed (all-to-all) traffic.
func NewRuntime(eng *des.Engine, net *noc.Network, eps []core.Endpoint, cfg Config) *Runtime {
	if len(eps) != net.Topo().N() {
		panic(fmt.Sprintf("collectives: %d endpoints for %d nodes", len(eps), net.Topo().N()))
	}
	cfg = cfg.withDefaults()
	if !net.Topo().NodeSymmetric() {
		// LIFO admission assumes every node pops the same chunk sequence,
		// which holds only when all node timelines are identical (the
		// rotation symmetry of all-wraparound fabrics). On an asymmetric
		// fabric (a mesh dimension of size >= 3) timelines diverge, so
		// LIFO pops different chunk sets on different nodes and the
		// admission windows can cyclically starve each other — a real
		// distributed deadlock. FIFO admission is timing-independent (the
		// admitted set after k grants is the first k chunks in global
		// issue order on every node), which makes the globally oldest
		// unfinished chunk always admitted everywhere, so progress is
		// guaranteed. Force it on asymmetric fabrics.
		cfg.FIFOSched = true
	}
	rt := &Runtime{eng: eng, net: net, eps: eps, cfg: cfg}
	rt.streams = make([][]*Collective, rt.cfg.Streams)
	for i := range eps {
		sc := &nodeSched{rt: rt, node: noc.NodeID(i), issued: make([]int, rt.cfg.Streams)}
		if rt.cfg.Arb == ArbRoundRobin {
			sc.rrPending = make([][]*chunkExec, rt.cfg.Streams)
		}
		rt.scheds = append(rt.scheds, sc)
	}
	net.Forward = func(node noc.NodeID, bytes int64, next func()) {
		rt.eps[node].Forward(bytes, next)
	}
	if cfg.Recovery != nil {
		rt.rec = installRecovery(eng, net, *cfg.Recovery)
	}
	if tr := eng.Tracer(); tr != nil {
		rt.tracer = tr
		rt.collTracks = make([]trace.TrackID, len(eps))
		for i := range eps {
			rt.collTracks[i] = tr.RegisterTrack(fmt.Sprintf("npu%d/coll", i), i, trace.KindComm)
		}
	}
	return rt
}

// Streams returns the number of issue streams.
func (rt *Runtime) Streams() int { return rt.cfg.Streams }

// Nodes returns the fabric size.
func (rt *Runtime) Nodes() int { return len(rt.eps) }

// Endpoint returns node's endpoint.
func (rt *Runtime) Endpoint(node noc.NodeID) core.Endpoint { return rt.eps[node] }

// Network returns the fabric.
func (rt *Runtime) Network() *noc.Network { return rt.net }

// chunkSizes splits a payload according to the granularity config.
func (rt *Runtime) chunkSizes(bytes int64) []int64 {
	cfg := rt.cfg
	target := cfg.ChunkBytes
	if cfg.MaxChunkBytes > 0 && target > cfg.MaxChunkBytes {
		target = cfg.MaxChunkBytes
	}
	count := int(ceilDiv(bytes, int(target)))
	if count > cfg.MaxChunks {
		count = cfg.MaxChunks
	}
	if cfg.MaxChunkBytes > 0 {
		if minCount := int(ceilDiv(bytes, int(cfg.MaxChunkBytes))); count < minCount {
			count = minCount
		}
	}
	if count < 1 {
		count = 1
	}
	base := bytes / int64(count)
	rem := bytes - base*int64(count)
	sizes := make([]int64, count)
	for i := range sizes {
		sizes[i] = base
		if int64(i) < rem {
			sizes[i]++
		}
	}
	return sizes
}

// Issue registers that node has reached a collective point on stream 0.
// onDone fires when the collective's results are fully available at node.
// The returned Collective is shared across nodes.
func (rt *Runtime) Issue(node noc.NodeID, spec Spec, onDone func()) *Collective {
	return rt.IssueOn(0, node, spec, onDone)
}

// IssueOn registers that node has reached a collective point on the given
// stream. The i-th issue of every node on one stream resolves to the same
// Collective; streams are matched independently, so concurrent jobs with
// different programs never trip the symmetry check.
func (rt *Runtime) IssueOn(stream StreamID, node noc.NodeID, spec Spec, onDone func()) *Collective {
	if stream < 0 || int(stream) >= rt.cfg.Streams {
		panic(fmt.Sprintf("collectives: stream %d out of range [0,%d)", stream, rt.cfg.Streams))
	}
	if spec.Bytes <= 0 {
		panic(fmt.Sprintf("collectives: non-positive payload %d for %s", spec.Bytes, spec.Name))
	}
	if err := spec.Plan.Validate(); err != nil {
		panic(err)
	}
	sc := rt.scheds[node]
	seq := sc.issued[stream]
	sc.issued[stream]++
	match := rt.streams[stream]
	var coll *Collective
	switch {
	case seq < len(match):
		coll = match[seq]
		if coll.spec.Bytes != spec.Bytes || coll.spec.Kind != spec.Kind {
			panic(fmt.Sprintf("collectives: node %d issued %q (%d B) at stream %d seq %d, expected %q (%d B): asymmetric program",
				node, spec.Name, spec.Bytes, stream, seq, coll.spec.Name, coll.spec.Bytes))
		}
	case seq == len(match):
		// The collective's scheduling priority uses the runtime-global
		// creation index, so LIFO across streams means "most recently
		// issued anywhere" — with one stream this is the original order.
		coll = newCollective(rt, len(rt.colls), stream, spec)
		rt.colls = append(rt.colls, coll)
		rt.streams[stream] = append(match, coll)
	default:
		panic("collectives: issue sequence out of order")
	}
	if rt.hyb != nil && rt.hyb.take(coll, node, onDone) {
		return coll
	}
	coll.attach(node, onDone)
	return coll
}

// SendP2P issues a point-to-point transfer from src to dst on the fabric:
// the source endpoint pays its pass-through (Forward) cost to source the
// message, the payload is routed XYZ through the network (intermediate
// endpoints pay their store-and-forward cost via the Forward hook), and
// the destination endpoint pays its pass-through cost to sink it.
// onDelivered runs when the payload is available at dst. src == dst
// delivers after zero time. Point-to-point traffic bypasses the chunk
// scheduler: it contends with collectives for endpoint and link bandwidth
// but does not occupy admission-window slots, so a transfer can never
// deadlock against a window full of collective chunks.
func (rt *Runtime) SendP2P(src, dst noc.NodeID, bytes int64, onDelivered func()) {
	if bytes <= 0 {
		panic(fmt.Sprintf("collectives: non-positive p2p payload %d", bytes))
	}
	if src == dst {
		rt.eng.After(0, onDelivered)
		return
	}
	if rt.hyb != nil && rt.hyb.takeP2P(src, dst, bytes, onDelivered) {
		return
	}
	rt.eps[src].Forward(bytes, func() {
		rt.net.SendRouted(src, dst, bytes, func() {
			rt.eps[dst].Forward(bytes, onDelivered)
		})
	})
}

// inMsg is a buffered arrival for a node that has not issued (or whose
// chunk has not reached the message's phase) yet.
type inMsg struct {
	chunk  int
	phase  int
	dirIdx int
	bytes  int64
}

// Collective is one global collective operation in flight.
type Collective struct {
	rt         *Runtime
	seq        int // runtime-global creation index (LIFO priority base)
	stream     StreamID
	spec       Spec
	sizes      []int64
	execs      [][]*chunkExec // [node][chunk]; nil until the node issues
	nodeDone   []func()
	nodeLeft   []int
	pendingIn  [][]inMsg
	completeAt []des.Time
	issuedAt   des.Time
	// spanLabels are the per-phase span labels ("name/p0.rs[local]",
	// stream-qualified on multi-stream runtimes), registered once per
	// collective so the per-chunk emission allocates nothing.
	spanLabels []trace.LabelID
}

// phaseSpanLabels registers a collective's per-phase span labels.
func phaseSpanLabels(rt *Runtime, stream StreamID, spec Spec) []trace.LabelID {
	label := spec.Name
	if rt.cfg.Streams > 1 {
		label = fmt.Sprintf("%s@s%d", label, stream)
	}
	shapes := Shapes(spec.Plan, spec.Bytes)
	labels := make([]trace.LabelID, len(shapes))
	for i, sh := range shapes {
		labels[i] = rt.tracer.Label(trace.CatComm, fmt.Sprintf("%s/p%d.%s[%s]", label, i, sh.Kind, sh.Dim))
	}
	return labels
}

func newCollective(rt *Runtime, seq int, stream StreamID, spec Spec) *Collective {
	n := rt.Nodes()
	var spanLabels []trace.LabelID
	if rt.tracer != nil {
		spanLabels = phaseSpanLabels(rt, stream, spec)
	}
	return &Collective{
		spanLabels: spanLabels,
		rt:         rt,
		seq:        seq,
		stream:     stream,
		spec:       spec,
		sizes:      rt.chunkSizes(spec.Bytes),
		execs:      make([][]*chunkExec, n),
		nodeDone:   make([]func(), n),
		nodeLeft:   make([]int, n),
		pendingIn:  make([][]inMsg, n),
		completeAt: make([]des.Time, n),
		issuedAt:   rt.eng.Now(),
	}
}

// Name returns the spec name.
func (c *Collective) Name() string { return c.spec.Name }

// Stream returns the issue stream the collective belongs to.
func (c *Collective) Stream() StreamID { return c.stream }

// Chunks returns the number of pipelined chunks.
func (c *Collective) Chunks() int { return len(c.sizes) }

// CompleteAt returns the simulated time (picoseconds) at which the
// collective finished at node, or zero while still in flight.
func (c *Collective) CompleteAt(node noc.NodeID) des.Time { return c.completeAt[node] }

func (c *Collective) attach(node noc.NodeID, onDone func()) {
	if c.execs[node] != nil {
		panic(fmt.Sprintf("collectives: node %d attached twice to %q", node, c.spec.Name))
	}
	sc := c.rt.scheds[node]
	execs := make([]*chunkExec, len(c.sizes))
	for i, sz := range c.sizes {
		execs[i] = newChunkExec(c, i, node, sz)
	}
	c.execs[node] = execs
	c.nodeDone[node] = onDone
	c.nodeLeft[node] = len(execs)
	for _, e := range execs {
		sc.enqueue(e)
	}
	// Replay arrivals that beat the local issue.
	buffered := c.pendingIn[node]
	c.pendingIn[node] = nil
	for _, m := range buffered {
		execs[m.chunk].onArrival(m.phase, m.dirIdx, m.bytes)
	}
	sc.maybeAdmit()
}

func (c *Collective) deliver(dst noc.NodeID, m inMsg) {
	if c.execs[dst] == nil {
		c.pendingIn[dst] = append(c.pendingIn[dst], m)
		return
	}
	c.execs[dst][m.chunk].onArrival(m.phase, m.dirIdx, m.bytes)
}

func (c *Collective) chunkDoneAt(node noc.NodeID) {
	c.nodeLeft[node]--
	if c.nodeLeft[node] < 0 {
		panic(fmt.Sprintf("collectives: %q over-completed at node %d", c.spec.Name, node))
	}
	if c.nodeLeft[node] == 0 {
		c.completeAt[node] = c.rt.eng.Now()
		if fn := c.nodeDone[node]; fn != nil {
			fn()
		}
	}
}

// nodeSched admits a node's pending chunks into its endpoint with LIFO
// collective priority (Section V: later-issued collectives belong to
// earlier layers of back-propagation and are needed first). Under
// ArbRoundRobin, streams take turns at each admission slot instead, with
// LIFO order kept within each stream.
type nodeSched struct {
	rt        *Runtime
	node      noc.NodeID
	issued    []int // per-stream issue counters
	pending   []*chunkExec
	rrPending [][]*chunkExec // per-stream queues (ArbRoundRobin only)
	rrNext    StreamID       // next stream offered an admission slot
	inflight  int
}

// insertByPrio inserts e into q keeping (prio desc, chunk asc) order.
func insertByPrio(q []*chunkExec, e *chunkExec) []*chunkExec {
	i := len(q)
	for i > 0 {
		p := q[i-1]
		if p.chunk.Prio > e.chunk.Prio ||
			(p.chunk.Prio == e.chunk.Prio && p.idx < e.idx) {
			break
		}
		i--
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = e
	return q
}

func (s *nodeSched) enqueue(e *chunkExec) {
	if s.rrPending != nil {
		st := e.coll.stream
		s.rrPending[st] = insertByPrio(s.rrPending[st], e)
		return
	}
	s.pending = insertByPrio(s.pending, e)
}

// next pops the chunk the arbitration policy grants the next slot to, or
// nil when nothing is pending.
func (s *nodeSched) next() *chunkExec {
	if s.rrPending == nil {
		if len(s.pending) == 0 {
			return nil
		}
		e := s.pending[0]
		s.pending = s.pending[1:]
		return e
	}
	n := StreamID(len(s.rrPending))
	for off := StreamID(0); off < n; off++ {
		st := (s.rrNext + off) % n
		if q := s.rrPending[st]; len(q) > 0 {
			s.rrPending[st] = q[1:]
			s.rrNext = (st + 1) % n
			return q[0]
		}
	}
	return nil
}

func (s *nodeSched) maybeAdmit() {
	for s.inflight < s.rt.cfg.Window {
		e := s.next()
		if e == nil {
			return
		}
		s.inflight++
		if s.rt.tracer != nil {
			s.rt.tracer.Count(s.rt.collTracks[s.node], "inflight", int64(s.rt.eng.Now()), float64(s.inflight))
		}
		s.rt.eps[s.node].Admit(e.chunk, e.start)
	}
}

func (s *nodeSched) chunkFinished() {
	s.inflight--
	if s.inflight < 0 {
		panic(fmt.Sprintf("collectives: node %d finished more chunks than admitted", s.node))
	}
	if s.rt.tracer != nil {
		s.rt.tracer.Count(s.rt.collTracks[s.node], "inflight", int64(s.rt.eng.Now()), float64(s.inflight))
	}
	s.maybeAdmit()
}

// ringRun is the per-direction state of a ring phase.
type ringRun struct {
	exec         *chunkExec
	dirIdx       int // 0 -> +1, 1 -> -1
	shape        *PhaseShape
	recvsDone    int
	sendsIssued  int
	sendsSourced int
	queue        []int64 // arrived, unprocessed message sizes
	busy         bool
	finished     bool

	// Hot-path callbacks, built once per direction-phase and reused for
	// all Steps sends and receives. A ring direction's message geometry
	// (destination, phase, bytes) is constant, so nothing needs to be
	// captured per hop; this removes three closure allocations per ring
	// step that the naive formulation pays.
	onSourced func() // SourceSend completion: inject into the fabric
	onRecvd   func() // SinkRecv completion: advance the receive pipeline
	deliverFn func() // network delivery at the downstream neighbor
}

// initCallbacks builds the direction's reusable callbacks. Must run after
// exec/dirIdx/shape are set and before the first send is issued.
func (rr *ringRun) initCallbacks() {
	e := rr.exec
	rt := e.rt()
	s := rr.shape
	phase := e.phase
	bytes := s.DirSeg[rr.dirIdx]
	dir := dirVal(rr.dirIdx)
	dst := rt.net.Topo().Neighbor(e.node, s.Dim, dir)
	if rt.mirror {
		// Mirrored shadow: the fabric carries only this node's traffic,
		// and by rotation symmetry a message sent to the downstream
		// neighbor arrives exactly when the upstream neighbor's copy
		// would arrive here — so deliver to self on the real link.
		dst = e.node
	}
	m := inMsg{chunk: e.idx, phase: phase, dirIdx: rr.dirIdx, bytes: bytes}
	rr.deliverFn = func() { e.coll.deliver(dst, m) }
	rr.onSourced = func() {
		rt.net.SendNeighbor(e.node, s.Dim, dir, bytes, rr.deliverFn)
		rr.sendsSourced++
		rr.maybeFinish()
	}
	rr.onRecvd = func() {
		rr.busy = false
		rr.recvsDone++
		if rr.recvsDone < s.Steps {
			rr.issueSend()
		}
		rr.maybeFinish()
		rr.pump()
	}
}

// a2aRun is the state of an all-to-all phase.
type a2aRun struct {
	exec         *chunkExec
	peers        int
	sendsSourced int
	recvsDone    int
	finished     bool
}

// chunkExec drives one chunk of one collective at one node through its
// plan phases against the node's endpoint.
type chunkExec struct {
	coll       *Collective
	idx        int
	node       noc.NodeID
	chunk      *core.Chunk
	shapes     []PhaseShape
	phase      int
	phaseStart des.Time // when the current phase began (span emission)
	started    bool
	dirs       [2]*ringRun
	dirsUp     int
	a2a        *a2aRun
	inbox      [][2][]int64

	// startPhaseFn and drainedFn are built once per chunk and reused for
	// every phase transition / the terminal drain, avoiding a method-value
	// allocation per phase.
	startPhaseFn func()
	drainedFn    func()
}

func newChunkExec(c *Collective, idx int, node noc.NodeID, bytes int64) *chunkExec {
	shapes := Shapes(c.spec.Plan, bytes)
	e := &chunkExec{
		coll:   c,
		idx:    idx,
		node:   node,
		shapes: shapes,
		inbox:  make([][2][]int64, len(shapes)),
	}
	prio := int64(c.seq) - c.spec.PrioBias // LIFO: later issues are more urgent
	if c.rt.cfg.FIFOSched {
		prio = -int64(c.seq)
	}
	e.chunk = &core.Chunk{
		Bytes:    bytes,
		Resident: ResidentBytes(shapes),
		Prio:     prio,
	}
	e.startPhaseFn = e.startPhase
	e.drainedFn = func() {
		rt := e.rt()
		e.coll.chunkDoneAt(e.node)
		rt.scheds[e.node].chunkFinished()
	}
	return e
}

func (e *chunkExec) rt() *Runtime { return e.coll.rt }

// start runs after endpoint admission.
func (e *chunkExec) start() {
	e.started = true
	e.startPhase()
}

func (e *chunkExec) startPhase() {
	e.phaseStart = e.rt().eng.Now()
	s := &e.shapes[e.phase]
	if s.Kind == core.PhaseAllToAll {
		e.startA2A(s)
		return
	}
	e.dirs = [2]*ringRun{}
	e.dirsUp = 0
	for d := 0; d < 2; d++ {
		if s.DirIn[d] == 0 {
			continue
		}
		rr := &ringRun{exec: e, dirIdx: d, shape: s}
		rr.initCallbacks()
		e.dirs[d] = rr
		e.dirsUp++
	}
	for d := 0; d < 2; d++ {
		if rr := e.dirs[d]; rr != nil {
			rr.issueSend()
			// Replay buffered arrivals for this phase.
			for _, b := range e.inbox[e.phase][d] {
				rr.arrive(b)
			}
			e.inbox[e.phase][d] = nil
		}
	}
}

// dirVal maps a direction index to a ring direction.
func dirVal(dirIdx int) int {
	if dirIdx == 0 {
		return +1
	}
	return -1
}

// issueSend pays the endpoint's sourcing cost for the direction's next
// outgoing message; onSourced (prebuilt) injects it into the fabric.
func (rr *ringRun) issueSend() {
	e := rr.exec
	rr.sendsIssued++
	e.rt().eps[e.node].SourceSend(e.chunk, e.phase, rr.shape.Kind, rr.shape.DirSeg[rr.dirIdx], rr.onSourced)
}

func (rr *ringRun) arrive(bytes int64) {
	rr.queue = append(rr.queue, bytes)
	rr.pump()
}

func (rr *ringRun) pump() {
	if rr.busy || len(rr.queue) == 0 {
		return
	}
	rr.busy = true
	bytes := rr.queue[0]
	rr.queue = rr.queue[1:]
	e := rr.exec
	s := rr.shape
	if rr.recvsDone >= s.Steps {
		panic(fmt.Sprintf("collectives: stale ring receive (coll %q node %d phase %d dir %d)",
			e.coll.spec.Name, e.node, e.phase, rr.dirIdx))
	}
	reduce := rr.recvsDone < s.Reduces()
	e.rt().eps[e.node].SinkRecv(e.chunk, e.phase, s.Kind, bytes, reduce, rr.onRecvd)
}

// maybeFinish completes the direction once every receive has been
// processed and every send has left the endpoint.
func (rr *ringRun) maybeFinish() {
	if rr.finished || rr.recvsDone < rr.shape.Steps || rr.sendsSourced < rr.shape.Steps {
		return
	}
	rr.finished = true
	rr.exec.dirsUp--
	if rr.exec.dirsUp == 0 {
		rr.exec.phaseDone()
	}
}

func (e *chunkExec) startA2A(s *PhaseShape) {
	if e.rt().mirror {
		// Routed all-to-all traffic crosses other nodes' links, so the
		// mirror symmetry argument does not hold; the hybrid fast path
		// downgrades such plans before they reach a mirrored shadow.
		panic("collectives: all-to-all phase under a mirrored shadow")
	}
	n := e.rt().Nodes()
	e.a2a = &a2aRun{exec: e, peers: n - 1}
	rt := e.rt()
	phase := e.phase
	seg := s.DirSeg[0]
	// Peers are visited in coordinate-offset order so every node's send
	// sequence is the same pattern shifted by its own position
	// (rotation-equivariant). This keeps all nodes' timelines identical,
	// which the LIFO chunk scheduler relies on (see DESIGN.md).
	for _, dst := range a2aOrder(rt.net.Topo(), e.node) {
		dst := dst
		rt.eps[e.node].SourceSend(e.chunk, phase, s.Kind, seg, func() {
			m := inMsg{chunk: e.idx, phase: phase, dirIdx: 0, bytes: seg}
			rt.net.SendRouted(e.node, dst, seg, func() {
				e.coll.deliver(dst, m)
			})
			e.a2a.sendsSourced++
			e.a2a.maybeFinish()
		})
	}
	// Replay buffered arrivals.
	for _, b := range e.inbox[phase][0] {
		e.a2aArrive(b)
	}
	e.inbox[phase][0] = nil
}

// a2aOrder lists every node other than self in lexicographic coordinate-
// offset order relative to self (row-major offsets, dimension 0 fastest —
// the same enumeration for every node, shifted by its own position).
func a2aOrder(t noc.Topology, self noc.NodeID) []noc.NodeID {
	n := t.N()
	order := make([]noc.NodeID, 0, n-1)
	for off := 1; off < n; off++ {
		order = append(order, t.OffsetID(self, off))
	}
	return order
}

func (e *chunkExec) a2aArrive(bytes int64) {
	s := &e.shapes[e.phase]
	e.rt().eps[e.node].SinkRecv(e.chunk, e.phase, s.Kind, bytes, false, func() {
		e.a2a.recvsDone++
		e.a2a.maybeFinish()
	})
}

func (a *a2aRun) maybeFinish() {
	if !a.finished && a.sendsSourced == a.peers && a.recvsDone == a.peers {
		a.finished = true
		a.exec.phaseDone()
	}
}

func (e *chunkExec) onArrival(phase, dirIdx int, bytes int64) {
	if !e.started || phase != e.phase {
		e.inbox[phase][dirIdx] = append(e.inbox[phase][dirIdx], bytes)
		return
	}
	if e.shapes[phase].Kind == core.PhaseAllToAll {
		if e.a2a == nil {
			// Phase-transition gap: the chunk has logically advanced
			// to this phase but the endpoint's NextPhase is still in
			// flight. Buffer; startPhase replays the inbox.
			e.inbox[phase][dirIdx] = append(e.inbox[phase][dirIdx], bytes)
			return
		}
		e.a2aArrive(bytes)
		return
	}
	rr := e.dirs[dirIdx]
	if rr == nil {
		// Same phase-transition gap as above.
		e.inbox[phase][dirIdx] = append(e.inbox[phase][dirIdx], bytes)
		return
	}
	rr.arrive(bytes)
}

func (e *chunkExec) phaseDone() {
	// Clear per-phase state before advancing: arrivals racing the
	// endpoint's NextPhase must be buffered, not fed to stale state.
	e.dirs = [2]*ringRun{}
	e.a2a = nil
	rt := e.rt()
	if rt.tracer != nil {
		rt.tracer.Span(rt.collTracks[e.node], e.coll.spanLabels[e.phase],
			int64(e.phaseStart), int64(rt.eng.Now()), e.chunk.Bytes)
	}
	e.phase++
	if e.phase < len(e.shapes) {
		rt.eps[e.node].NextPhase(e.chunk, e.phase, e.startPhaseFn)
		return
	}
	rt.eps[e.node].Drain(e.chunk, e.drainedFn)
}

// DebugState reports unfinished collectives and per-node scheduler state
// for deadlock diagnosis.
func (rt *Runtime) DebugState() string {
	var sb []byte
	if rt.rec != nil {
		s := rt.rec.stats
		sb = append(sb, fmt.Sprintf("recovery: drops=%d retries=%d parked-now=%d woken=%d recovered=%d\n",
			s.Drops, s.Retries, len(rt.rec.parked), s.Woken, s.Recovered)...)
	}
	for _, c := range rt.colls {
		stuck := false
		for n := range c.nodeLeft {
			if c.execs[n] != nil && c.nodeLeft[n] > 0 {
				stuck = true
			}
		}
		if !stuck {
			continue
		}
		sb = append(sb, fmt.Sprintf("coll %d %q bytes=%d chunks=%d:\n", c.seq, c.spec.Name, c.spec.Bytes, len(c.sizes))...)
		for n := range c.nodeLeft {
			if c.execs[n] == nil {
				sb = append(sb, fmt.Sprintf("  node %d: not issued\n", n)...)
				continue
			}
			if c.nodeLeft[n] == 0 {
				continue
			}
			sb = append(sb, fmt.Sprintf("  node %d: left=%d", n, c.nodeLeft[n])...)
			for _, e := range c.execs[n] {
				if e.phase >= len(e.shapes) {
					continue
				}
				state := "pend"
				if e.started {
					state = "run"
				}
				detail := ""
				if e.a2a != nil {
					detail = fmt.Sprintf(" a2a(s=%d,r=%d)", e.a2a.sendsSourced, e.a2a.recvsDone)
				}
				for di, rr := range e.dirs {
					if rr != nil {
						detail += fmt.Sprintf(" d%d(r=%d,s=%d,q=%d)", di, rr.recvsDone, rr.sendsSourced, len(rr.queue))
					}
				}
				for ph := range e.inbox {
					for di := 0; di < 2; di++ {
						if n := len(e.inbox[ph][di]); n > 0 {
							detail += fmt.Sprintf(" inbox[%d][%d]=%d", ph, di, n)
						}
					}
				}
				sb = append(sb, fmt.Sprintf(" [c%d %s ph%d%s]", e.idx, state, e.phase, detail)...)
			}
			sb = append(sb, '\n')
		}
	}
	for i, sc := range rt.scheds {
		if sc.inflight > 0 || sc.pendingLen() > 0 {
			issued := 0
			for _, n := range sc.issued {
				issued += n
			}
			sb = append(sb, fmt.Sprintf("sched %d: inflight=%d pending=%d issued=%d\n", i, sc.inflight, sc.pendingLen(), issued)...)
		}
	}
	return string(sb)
}

// pendingLen counts chunks awaiting admission across all streams.
func (s *nodeSched) pendingLen() int {
	if s.rrPending == nil {
		return len(s.pending)
	}
	n := 0
	for _, q := range s.rrPending {
		n += len(q)
	}
	return n
}
