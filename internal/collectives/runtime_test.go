package collectives

import (
	"strings"
	"testing"

	"acesim/internal/core"
	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/npu"
)

// testSys bundles a small fabric with per-node endpoints for runtime tests.
type testSys struct {
	eng   *des.Engine
	net   *noc.Network
	nodes []*npu.Node
	eps   []core.Endpoint
	rt    *Runtime
}

// buildSys constructs a system with the given endpoint kind:
// "ideal", "baseline", or "ace".
func buildSys(t *testing.T, torus noc.Topology, kind string, cfg Config) *testSys {
	t.Helper()
	eng := des.NewEngine()
	net, err := noc.New(eng, noc.Config{
		Topo:  torus,
		Intra: noc.LinkClass{GBps: 200, LatCycles: 90, Efficiency: 0.94, FreqGHz: 1.245},
		Inter: noc.LinkClass{GBps: 25, LatCycles: 500, Efficiency: 0.94, FreqGHz: 1.245},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &testSys{eng: eng, net: net}
	for i := 0; i < torus.N(); i++ {
		p := npu.DefaultParams()
		var ep core.Endpoint
		switch kind {
		case "ideal":
			p.CommMemGBps, p.CommSMs = 0, 0
			node, err := npu.NewNode(eng, i, p, false)
			if err != nil {
				t.Fatal(err)
			}
			s.nodes = append(s.nodes, node)
			ep = core.NewIdeal(eng, 1.245)
		case "baseline":
			p.CommMemGBps, p.CommSMs = 450, 6
			node, err := npu.NewNode(eng, i, p, true)
			if err != nil {
				t.Fatal(err)
			}
			s.nodes = append(s.nodes, node)
			ep = core.NewBaseline(eng, node, core.DefaultBaselineConfig())
		case "ace":
			p.CommMemGBps, p.CommSMs = 128, 0
			node, err := npu.NewNode(eng, i, p, false)
			if err != nil {
				t.Fatal(err)
			}
			s.nodes = append(s.nodes, node)
			ace, err := core.NewACE(eng, node, core.DefaultACEConfig(4))
			if err != nil {
				t.Fatal(err)
			}
			ep = ace
		default:
			t.Fatalf("unknown endpoint kind %q", kind)
		}
		s.eps = append(s.eps, ep)
	}
	s.rt = NewRuntime(eng, net, s.eps, cfg)
	return s
}

// runSingle issues one collective on every node at t=0 and runs to
// completion, returning the last node-completion time.
func (s *testSys) runSingle(t *testing.T, spec Spec) des.Time {
	t.Helper()
	done := 0
	var coll *Collective
	for i := 0; i < s.rt.Nodes(); i++ {
		coll = s.rt.Issue(noc.NodeID(i), spec, func() { done++ })
	}
	s.eng.Run()
	if done != s.rt.Nodes() {
		t.Fatalf("collective %q finished on %d/%d nodes", spec.Name, done, s.rt.Nodes())
	}
	var last des.Time
	for i := 0; i < s.rt.Nodes(); i++ {
		if ct := coll.CompleteAt(noc.NodeID(i)); ct > last {
			last = ct
		}
	}
	return last
}

func arSpec(torus noc.Topology, bytes int64) Spec {
	return Spec{Kind: AllReduce, Bytes: bytes, Plan: HierarchicalAllReduce(torus), Name: "ar"}
}

func TestRuntimeIdealAllReduceCompletes(t *testing.T) {
	torus := noc.Torus3(4, 2, 2)
	s := buildSys(t, torus, "ideal", DefaultConfig())
	dur := s.runSingle(t, arSpec(torus, 8<<20))
	if dur <= 0 {
		t.Fatal("zero duration")
	}
	// Injected bytes match the analytic per-node total exactly.
	want := perNodeInjected(t, s.rt, 8<<20, HierarchicalAllReduce(torus)) * int64(torus.N())
	if got := s.net.InjectedBytes(); got != want {
		t.Fatalf("injected = %d, want %d", got, want)
	}
}

// perNodeInjected sums the analytic injection over the runtime's actual
// chunk split (rounding makes per-chunk sums authoritative).
func perNodeInjected(t *testing.T, rt *Runtime, bytes int64, plan Plan) int64 {
	t.Helper()
	var sum int64
	for _, sz := range rt.chunkSizes(bytes) {
		tr, err := Analyze(rt.net.Topo(), plan, sz)
		if err != nil {
			t.Fatal(err)
		}
		sum += tr.Injected
	}
	return sum
}

func TestRuntimeBaselineMemoryTraffic(t *testing.T) {
	torus := noc.Torus3(4, 2, 2)
	s := buildSys(t, torus, "baseline", DefaultConfig())
	plan := HierarchicalAllReduce(torus)
	const payload = 4 << 20
	s.runSingle(t, arSpec(torus, payload))
	var wantReads, wantWrites int64
	for _, sz := range s.rt.chunkSizes(payload) {
		tr, err := Analyze(torus, plan, sz)
		if err != nil {
			t.Fatal(err)
		}
		wantReads += tr.BaselineReads
		wantWrites += tr.BaselineWrites
	}
	for i, n := range s.nodes {
		if got := n.CommMem.Meter.Total(); got != wantReads {
			t.Fatalf("node %d reads = %d, want %d", i, got, wantReads)
		}
		if got := n.WriteMeter.Total(); got != wantWrites {
			t.Fatalf("node %d writes = %d, want %d", i, got, wantWrites)
		}
	}
}

func TestRuntimeACEMemoryTraffic(t *testing.T) {
	torus := noc.Torus3(4, 2, 2)
	s := buildSys(t, torus, "ace", DefaultConfig())
	const payload = 4 << 20
	s.runSingle(t, arSpec(torus, payload))
	// ACE touches HBM exactly twice per chunk: payload in, result out.
	for i, n := range s.nodes {
		if got := n.CommMem.Meter.Total(); got != payload {
			t.Fatalf("node %d ACE reads = %d, want %d", i, got, payload)
		}
		if got := n.WriteMeter.Total(); got != payload {
			t.Fatalf("node %d ACE writes = %d, want %d", i, got, payload)
		}
	}
}

func TestRuntimeEndpointOrdering(t *testing.T) {
	// Same collective: ideal completes fastest, then ACE, then baseline
	// with starved comm resources.
	torus := noc.Torus3(4, 2, 2)
	const payload = 8 << 20
	ideal := buildSys(t, torus, "ideal", DefaultConfig()).runSingle(t, arSpec(torus, payload))
	ace := buildSys(t, torus, "ace", DefaultConfig()).runSingle(t, arSpec(torus, payload))
	base := buildSys(t, torus, "baseline", DefaultConfig()).runSingle(t, arSpec(torus, payload))
	if !(ideal <= ace) {
		t.Fatalf("ideal (%v) slower than ACE (%v)", ideal, ace)
	}
	if ace > 2*ideal {
		t.Fatalf("ACE (%v) should stay near ideal (%v)", ace, ideal)
	}
	_ = base // baseline with 450 GB/s is fast too; ordering vs ACE is workload-dependent
}

func TestRuntimeAllToAll(t *testing.T) {
	torus := noc.Torus3(4, 2, 2)
	for _, kind := range []string{"ideal", "baseline", "ace"} {
		s := buildSys(t, torus, kind, DefaultConfig())
		spec := Spec{Kind: AllToAll, Bytes: 1 << 20, Plan: DirectAllToAll(torus.N()), Name: "a2a"}
		dur := s.runSingle(t, spec)
		if dur <= 0 {
			t.Fatalf("%s: zero duration", kind)
		}
	}
}

func TestRuntimeAllToAllForwardingTraffic(t *testing.T) {
	// Multi-hop all-to-all must put more bytes on the wire than injected.
	torus := noc.Torus3(4, 2, 2)
	s := buildSys(t, torus, "ideal", DefaultConfig())
	spec := Spec{Kind: AllToAll, Bytes: 1 << 20, Plan: DirectAllToAll(torus.N()), Name: "a2a"}
	s.runSingle(t, spec)
	if s.net.TotalWireBytes() <= s.net.InjectedBytes() {
		t.Fatalf("wire bytes %d should exceed injected %d (forwarding)",
			s.net.TotalWireBytes(), s.net.InjectedBytes())
	}
}

func TestRuntimeLIFOPriority(t *testing.T) {
	// With a window of 1, a later-issued collective jumps the queue:
	// its chunks are admitted before the earlier collective's remaining
	// chunks, so it completes first.
	torus := noc.Torus3(4, 1, 1)
	cfg := DefaultConfig()
	cfg.Window = 1
	cfg.ChunkBytes = 64 << 10
	s := buildSys(t, torus, "ideal", cfg)
	specA := Spec{Kind: AllReduce, Bytes: 2 << 20, Plan: RingAllReduce(4, noc.DimLocal), Name: "early"}
	specB := Spec{Kind: AllReduce, Bytes: 2 << 20, Plan: RingAllReduce(4, noc.DimLocal), Name: "late"}
	var collA, collB *Collective
	for i := 0; i < 4; i++ {
		collA = s.rt.Issue(noc.NodeID(i), specA, nil)
		collB = s.rt.Issue(noc.NodeID(i), specB, nil)
	}
	s.eng.Run()
	a, b := collA.CompleteAt(0), collB.CompleteAt(0)
	if a == 0 || b == 0 {
		t.Fatal("collectives did not finish")
	}
	if b >= a {
		t.Fatalf("LIFO violated: late collective finished at %v, early at %v", b, a)
	}
}

func TestRuntimeStaggeredIssue(t *testing.T) {
	// Nodes issue at different times; early arrivals must be buffered
	// and the collective still completes correctly.
	torus := noc.Torus3(4, 1, 1)
	s := buildSys(t, torus, "ideal", DefaultConfig())
	spec := arSpec(torus, 1<<20)
	done := 0
	var coll *Collective
	for i := 0; i < 4; i++ {
		delay := des.Time(i) * 50 * des.Microsecond
		node := noc.NodeID(i)
		s.eng.At(delay, func() {
			coll = s.rt.Issue(node, spec, func() { done++ })
		})
	}
	s.eng.Run()
	if done != 4 {
		t.Fatalf("finished on %d/4 nodes", done)
	}
	// The last node to issue gates the whole ring.
	if coll.CompleteAt(0) < 150*des.Microsecond {
		t.Fatalf("completed before the last issue: %v", coll.CompleteAt(0))
	}
}

func TestRuntimeDeterminism(t *testing.T) {
	torus := noc.Torus3(4, 2, 2)
	run := func() des.Time {
		s := buildSys(t, torus, "ace", DefaultConfig())
		return s.runSingle(t, arSpec(torus, 4<<20))
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestRuntimeChunkSizes(t *testing.T) {
	s := buildSys(t, noc.Torus3(2, 1, 1), "ideal", Config{
		ChunkBytes: 64 << 10, MaxChunks: 4, Window: 16,
	})
	// Small payload: one chunk.
	if got := s.rt.chunkSizes(10 << 10); len(got) != 1 || got[0] != 10<<10 {
		t.Fatalf("small payload chunks = %v", got)
	}
	// Large payload: capped at MaxChunks, sizes even and conserving.
	sizes := s.rt.chunkSizes(1 << 20)
	if len(sizes) != 4 {
		t.Fatalf("chunks = %d, want 4", len(sizes))
	}
	var sum int64
	for _, sz := range sizes {
		sum += sz
	}
	if sum != 1<<20 {
		t.Fatalf("chunk sizes don't conserve payload: %d", sum)
	}
}

func TestRuntimeMaxChunkBytes(t *testing.T) {
	s := buildSys(t, noc.Torus3(2, 1, 1), "ideal", Config{
		ChunkBytes: 1 << 20, MaxChunks: 2, MaxChunkBytes: 128 << 10, Window: 16,
	})
	// MaxChunkBytes overrides MaxChunks.
	sizes := s.rt.chunkSizes(1 << 20)
	if len(sizes) != 8 {
		t.Fatalf("chunks = %d, want 8 (ceiling by MaxChunkBytes)", len(sizes))
	}
	for _, sz := range sizes {
		if sz > 128<<10 {
			t.Fatalf("chunk %d exceeds MaxChunkBytes", sz)
		}
	}
}

func TestRuntimeAsymmetricProgramPanics(t *testing.T) {
	torus := noc.Torus3(2, 1, 1)
	s := buildSys(t, torus, "ideal", DefaultConfig())
	s.rt.Issue(0, Spec{Kind: AllReduce, Bytes: 1 << 10, Plan: RingAllReduce(2, noc.DimLocal), Name: "a"}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("asymmetric issue should panic")
		}
	}()
	s.rt.Issue(1, Spec{Kind: AllReduce, Bytes: 2 << 10, Plan: RingAllReduce(2, noc.DimLocal), Name: "b"}, nil)
}

func TestRuntimeInvalidSpecPanics(t *testing.T) {
	torus := noc.Torus3(2, 1, 1)
	s := buildSys(t, torus, "ideal", DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-byte spec should panic")
		}
	}()
	s.rt.Issue(0, Spec{Kind: AllReduce, Bytes: 0, Plan: RingAllReduce(2, noc.DimLocal)}, nil)
}

func TestRuntimeMeshCompletes(t *testing.T) {
	// Hierarchical all-reduce on mesh (non-wraparound) fabrics: the
	// logical-ring boundary hop routes across the line, so the collective
	// completes correctly but strictly slower than on the torus of the
	// same shape.
	for _, kind := range []string{"ideal", "ace", "baseline"} {
		torus := buildSys(t, noc.Grid(4, 2, 2), kind, Config{})
		tDur := torus.runSingle(t, arSpec(noc.Grid(4, 2, 2), 1<<20))
		mesh := noc.Topology{Dims: []noc.DimSpec{{Size: 4}, {Size: 2}, {Size: 2}}}
		msys := buildSys(t, mesh, kind, Config{})
		mDur := msys.runSingle(t, arSpec(mesh, 1<<20))
		if mDur <= tDur {
			t.Errorf("%s: mesh all-reduce %v not slower than torus %v", kind, mDur, tDur)
		}
	}
}

func TestRuntimeAsymmetricForcesFIFO(t *testing.T) {
	// LIFO admission assumes identical node timelines; a mesh dimension
	// of size >= 3 breaks that symmetry, so the runtime must fall back to
	// timing-independent FIFO admission (see NewRuntime).
	line := buildSys(t, noc.Topology{Dims: []noc.DimSpec{{Size: 3}}}, "ideal", Config{})
	if !line.rt.cfg.FIFOSched {
		t.Fatal("asymmetric fabric kept LIFO admission")
	}
	ring := buildSys(t, noc.Grid(4, 2, 2), "ideal", Config{})
	if ring.rt.cfg.FIFOSched {
		t.Fatal("symmetric fabric lost LIFO admission")
	}
	// Size-2 lines are mirror-symmetric: both endpoints pay identical
	// costs, so LIFO stays safe.
	pair := buildSys(t, noc.Topology{Dims: []noc.DimSpec{{Size: 2}}}, "ideal", Config{})
	if pair.rt.cfg.FIFOSched {
		t.Fatal("size-2 line treated as asymmetric")
	}
}

// TestRuntimeMeshStaggeredNoDeadlock is the regression for the
// asymmetric-fabric admission deadlock: chained collectives on a mesh
// (every node issues the next one as soon as the previous completes
// locally, so issue times diverge across boundary and interior nodes)
// with a tiny admission window. Under LIFO admission different nodes
// admit different chunk sets and the run wedges; the forced FIFO
// fallback keeps the globally oldest chunk admitted everywhere.
func TestRuntimeMeshStaggeredNoDeadlock(t *testing.T) {
	mesh := noc.Topology{Dims: []noc.DimSpec{{Size: 5}, {Size: 3}}}
	s := buildSys(t, mesh, "ace", Config{Window: 2, ChunkBytes: 32 << 10})
	const rounds = 6
	done := 0
	var issue func(node noc.NodeID, i int)
	issue = func(node noc.NodeID, i int) {
		s.rt.Issue(node, arSpec(mesh, 512<<10), func() {
			if i+1 < rounds {
				issue(node, i+1)
				return
			}
			done++
		})
	}
	for n := 0; n < s.rt.Nodes(); n++ {
		issue(noc.NodeID(n), 0)
	}
	s.eng.Run()
	if done != s.rt.Nodes() {
		t.Fatalf("chained mesh collectives finished on %d/%d nodes (deadlock):\n%s",
			done, s.rt.Nodes(), s.rt.DebugState())
	}
}

// TestRuntimeDebugState pins the deadlock diagnostic the runtime and
// chaos tests print on failure. On a 2x2 torus whose node 3 never
// issues, nodes 0 and 1 finish the first-dimension reduce-scatter and
// send their first all-reduce messages to node 2, which is still stuck
// in phase 0 waiting for node 3: node 2's chunk buffers them in its
// inbox, while node 0's chunk never buffers anything.
func TestRuntimeDebugState(t *testing.T) {
	torus := noc.Torus3(2, 2, 1)
	s := buildSys(t, torus, "ideal", DefaultConfig())
	spec := arSpec(torus, 64<<10) // one chunk
	var coll *Collective
	for i := 0; i < 3; i++ {
		coll = s.rt.Issue(noc.NodeID(i), spec, func() { t.Fatal("stalled collective completed") })
	}
	s.eng.Run()
	if coll.Chunks() != 1 {
		t.Fatalf("%d chunks, want 1", coll.Chunks())
	}
	if e := coll.execs[0][0]; e.inbox != nil {
		t.Fatalf("node 0's chunk buffered arrivals: %v", e.inbox)
	}
	if e := coll.execs[2][0]; e.inbox == nil || e.phase != 0 {
		t.Fatalf("node 2's chunk: phase %d inbox %v, want phase 0 with buffered arrivals", e.phase, e.inbox)
	}
	got := s.rt.DebugState()
	t.Log("\n" + got)
	for _, want := range []string{
		`coll 0 "ar" bytes=65536 chunks=1:`,
		"node 3: not issued",
		"node 0: left=1 [c0 run ph1 ",
		"node 2: left=1 [c0 run ph0 ",
		" inbox[1][0]=1 inbox[1][1]=1]",
		"sched 2: inflight=1 pending=0 issued=1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("DebugState lacks %q", want)
		}
	}
}
