package noc

import (
	"testing"

	"acesim/internal/des"
	"acesim/internal/stats"
)

func testConfig(t Topology) Config {
	return Config{
		Topo:  t,
		Intra: LinkClass{GBps: 200, LatCycles: 90, Efficiency: 0.94, FreqGHz: 1.245},
		Inter: LinkClass{GBps: 25, LatCycles: 500, Efficiency: 0.94, FreqGHz: 1.245},
	}
}

func TestNetworkLinkCount(t *testing.T) {
	eng := des.NewEngine()
	// 4x2x2: every node has 2 local + 2 vertical + 2 horizontal links.
	n, err := New(eng, testConfig(Torus3(4, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.NumLinks(), 16*6; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	// Degenerate dims have no links.
	n2, _ := New(eng, testConfig(Torus3(4, 1, 1)))
	if got, want := n2.NumLinks(), 4*2; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
}

func TestNetworkInvalidTopo(t *testing.T) {
	if _, err := New(des.NewEngine(), testConfig(Torus3(0, 1, 1))); err == nil {
		t.Fatal("want error for invalid torus")
	}
}

func TestSendNeighborTiming(t *testing.T) {
	eng := des.NewEngine()
	n, _ := New(eng, testConfig(Torus3(4, 2, 2)))
	var arrive des.Time
	// 188 GB/s effective on local links; 1e6 bytes.
	n.SendNeighbor(0, DimLocal, +1, 1e6, func() { arrive = eng.Now() })
	eng.Run()
	want := des.ByteDur(1e6, 200*0.94) + des.Cycles(90, 1.245)
	if arrive != want {
		t.Fatalf("arrival %v, want %v", arrive, want)
	}
	if n.InjectedBytes() != 1e6 {
		t.Fatalf("injected = %d", n.InjectedBytes())
	}
}

func TestSendNeighborSerializes(t *testing.T) {
	eng := des.NewEngine()
	n, _ := New(eng, testConfig(Torus3(4, 1, 1)))
	var t1, t2 des.Time
	n.SendNeighbor(0, DimLocal, +1, 1e6, func() { t1 = eng.Now() })
	n.SendNeighbor(0, DimLocal, +1, 1e6, func() { t2 = eng.Now() })
	eng.Run()
	ser := des.ByteDur(1e6, 188)
	if t2-t1 != ser {
		t.Fatalf("second message should queue one serialization behind: %v vs %v", t1, t2)
	}
	// Opposite directions do not interfere.
	var t3 des.Time
	n2, _ := New(des.NewEngine(), testConfig(Torus3(4, 1, 1)))
	_ = n2
	eng2 := des.NewEngine()
	n3, _ := New(eng2, testConfig(Torus3(4, 1, 1)))
	n3.SendNeighbor(0, DimLocal, +1, 1e6, nil_)
	n3.SendNeighbor(0, DimLocal, -1, 1e6, func() { t3 = eng2.Now() })
	eng2.Run()
	if t3 != ser+des.Cycles(90, 1.245) {
		t.Fatalf("reverse direction was blocked: %v", t3)
	}
}

func nil_() {}

func TestSendRoutedForwardHook(t *testing.T) {
	eng := des.NewEngine()
	n, _ := New(eng, testConfig(Torus3(4, 1, 1)))
	var fwdNodes []NodeID
	n.Forward = func(node NodeID, bytes int64, fn func(any), arg any) {
		fwdNodes = append(fwdNodes, node)
		eng.AfterCtx(des.Nanosecond, fn, arg)
	}
	delivered := false
	n.SendRouted(0, 2, 1000, func() { delivered = true }) // 0 -> 1 -> 2
	eng.Run()
	if !delivered {
		t.Fatal("not delivered")
	}
	if len(fwdNodes) != 1 || fwdNodes[0] != 1 {
		t.Fatalf("forward hook at %v, want [1]", fwdNodes)
	}
}

func TestSendRoutedSelf(t *testing.T) {
	eng := des.NewEngine()
	n, _ := New(eng, testConfig(Torus3(4, 2, 2)))
	done := false
	n.SendRouted(3, 3, 1000, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("self delivery did not happen")
	}
	if n.TotalWireBytes() != 0 {
		t.Fatal("self delivery should not touch the wire")
	}
}

func TestSendRoutedWireBytes(t *testing.T) {
	eng := des.NewEngine()
	n, _ := New(eng, testConfig(Torus3(4, 4, 1)))
	// 2 local hops + 2 vertical hops from (0,0) to (2,2).
	src, dst := n.Topo().ID(0, 0, 0), n.Topo().ID(2, 2, 0)
	n.SendRouted(src, dst, 1000, nil_)
	eng.Run()
	if got := n.TotalWireBytes(); got != 4000 {
		t.Fatalf("wire bytes = %d, want 4000 (4 hops)", got)
	}
	if got := n.InjectedBytes(); got != 1000 {
		t.Fatalf("injected = %d, want 1000", got)
	}
}

// TestSendRoutedRecyclesRecords checks that transfer records are reused:
// after a warm all-to-all round, further rounds create no record and grow
// no path buffer, and a delivery may reuse the record it arrived on. It
// runs on a fault-free fabric and on a fault-enabled one, where every
// send, direct neighbor hops included, rides a record. Both fabrics
// schedule the same events, so a warm round allocates as much on both:
// only the engine's calendar allocates (its bucket reuse is bounded, see
// des.Engine), never a record, path or closure of a send.
func TestSendRoutedRecyclesRecords(t *testing.T) {
	var allocs [2]float64
	for i, faults := range []bool{false, true} {
		eng := des.NewEngine()
		n, _ := New(eng, testConfig(Torus3(4, 4, 2)))
		if faults {
			n.EnableFaults(RecoveryPolicy{Timeout: des.Microsecond, Backoff: 2, MaxRetries: 10})
		}
		n.Forward = func(_ NodeID, _ int64, fn func(any), arg any) { eng.AfterCtx(des.Nanosecond, fn, arg) }
		N := NodeID(n.Topo().N())
		delivered := 0
		// Each delivery to node 0 sends one more message across the fabric.
		relay := func() { delivered++; n.SendRouted(0, N-1, 100, nil_) }
		round := func() {
			for src := NodeID(0); src < N; src++ {
				n.SendNeighbor(src, DimLocal, +1, 100, nil_)
				for dst := NodeID(0); dst < N; dst++ {
					if dst == 0 && src != 0 {
						n.SendRouted(src, dst, 100, relay)
					} else if src != dst {
						n.SendRouted(src, dst, 100, nil_)
					}
				}
			}
			eng.Run()
		}
		round()
		records := len(n.xfers)
		// AllocsPerRun runs one warm-up round and three measured ones.
		allocs[i] = testing.AllocsPerRun(3, round)
		if want := 5 * (int(N) - 1); delivered != want {
			t.Fatalf("faults=%v: relayed %d deliveries, want %d", faults, delivered, want)
		}
		if len(n.xfers) != records {
			t.Fatalf("faults=%v: %d transfer records after five rounds, %d after the first", faults, len(n.xfers), records)
		}
		for _, x := range n.xfers {
			if cap(x.path) != n.Topo().Diameter() || x.fn != nil || x.arg != nil {
				t.Fatalf("faults=%v: idle record: path cap %d (diameter %d), delivery set %v",
					faults, cap(x.path), n.Topo().Diameter(), x.fn != nil || x.arg != nil)
			}
		}
	}
	// The calendar's instant index is a Go map, whose random hash seed
	// moves its allocations by one between runs; a send that allocated
	// would add at least one per send, over a thousand per round.
	if allocs[1] > allocs[0]+2 {
		t.Errorf("warm round allocates %v on the fault-enabled fabric, %v on the fault-free one", allocs[1], allocs[0])
	}
}

func TestNetworkTrace(t *testing.T) {
	eng := des.NewEngine()
	n, _ := New(eng, testConfig(Torus3(4, 1, 1)))
	tr := stats.NewTrace(des.Microsecond)
	for _, l := range n.Links() {
		l.Server().Observe(func(start, end des.Time, _ int64) { tr.AddBusy(start, end) })
	}
	n.SendNeighbor(0, DimLocal, +1, 188_000, nil_) // 1us at 188 GB/s
	eng.Run()
	if tr.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
	// One of 8 links busy for one bucket.
	if got := tr.Utilization(0, float64(n.NumLinks())); got < 0.1 || got > 0.14 {
		t.Fatalf("trace util = %v, want ~1/8", got)
	}
}

func TestNetworkMeshLinkCount(t *testing.T) {
	eng := des.NewEngine()
	// 4-ring x 3-line: 12 nodes. Ring dim: 2 links per node = 24. Mesh
	// dim: 2 interior pairs per line x 2 wires x 4 lines = 16. No
	// boundary (wraparound) wires on the mesh dimension.
	topo := Topology{Dims: []DimSpec{{Size: 4, Wrap: true}, {Size: 3}}}
	n, err := New(eng, Config{Topo: topo, Intra: LinkClass{GBps: 200, Efficiency: 1, FreqGHz: 1}, Inter: LinkClass{GBps: 25, Efficiency: 1, FreqGHz: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.NumLinks(), 12*2+4*2*2; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	// The boundary link does not exist.
	if l := n.Link(topo.ID(0, 2), 1, +1); l != nil {
		t.Fatal("mesh boundary link exists")
	}
	if l := n.Link(topo.ID(0, 1), 1, +1); l == nil {
		t.Fatal("mesh interior link missing")
	}
}

func TestSendNeighborMeshBoundary(t *testing.T) {
	// The logical ring's boundary hop on a 4-line routes back across the
	// whole line: 3 physical hops, store-and-forward at 2 intermediate
	// endpoints.
	eng := des.NewEngine()
	topo := Topology{Dims: []DimSpec{{Size: 4}}}
	cfg := testConfig(topo)
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fwdNodes []NodeID
	n.Forward = func(node NodeID, bytes int64, fn func(any), arg any) {
		fwdNodes = append(fwdNodes, node)
		fn(arg)
	}
	var arrive des.Time
	n.SendNeighbor(3, 0, +1, 1e6, func() { arrive = eng.Now() })
	eng.Run()
	hop := des.ByteDur(1e6, 200*0.94) + des.Cycles(90, 1.245)
	if arrive != 3*hop {
		t.Fatalf("boundary hop arrived at %v, want 3 hops = %v", arrive, 3*hop)
	}
	if len(fwdNodes) != 2 || fwdNodes[0] != 2 || fwdNodes[1] != 1 {
		t.Fatalf("forward hook at %v, want [2 1]", fwdNodes)
	}
	if n.InjectedBytes() != 1e6 {
		t.Fatalf("injected = %d, want one injection for the whole closure", n.InjectedBytes())
	}
	if n.TotalWireBytes() != 3e6 {
		t.Fatalf("wire bytes = %d, want 3 hops' worth", n.TotalWireBytes())
	}
	// Interior hops use the single wire directly.
	eng2 := des.NewEngine()
	n2, _ := New(eng2, cfg)
	var t2 des.Time
	n2.SendNeighbor(1, 0, +1, 1e6, func() { t2 = eng2.Now() })
	eng2.Run()
	if t2 != hop {
		t.Fatalf("interior hop = %v, want %v", t2, hop)
	}
}

func TestSendNeighborMeshSize2(t *testing.T) {
	// A 2-line's boundary hop is one physical hop on the opposite wire —
	// no intermediate endpoints, same latency as the direct hop.
	eng := des.NewEngine()
	n, err := New(eng, testConfig(Topology{Dims: []DimSpec{{Size: 2}}}))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumLinks() != 2 {
		t.Fatalf("2-line has %d links, want 2", n.NumLinks())
	}
	hop := des.ByteDur(1e6, 200*0.94) + des.Cycles(90, 1.245)
	var t1, t2 des.Time
	n.SendNeighbor(0, 0, +1, 1e6, func() { t1 = eng.Now() }) // direct
	n.SendNeighbor(1, 0, +1, 1e6, func() { t2 = eng.Now() }) // boundary
	eng.Run()
	if t1 != hop || t2 != hop {
		t.Fatalf("2-line hops = %v/%v, want both %v", t1, t2, hop)
	}
}

func TestPerDimLinkOverrides(t *testing.T) {
	// A per-dimension bandwidth/latency override replaces the class
	// values for that dimension only.
	eng := des.NewEngine()
	topo := Topology{Dims: []DimSpec{
		{Size: 2, Wrap: true},
		{Size: 2, Wrap: true, GBps: 100, LatCycles: 10},
	}}
	cfg := testConfig(topo)
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var t0, t1 des.Time
	n.SendNeighbor(0, 0, +1, 1e6, func() { t0 = eng.Now() })
	n.SendNeighbor(0, 1, +1, 1e6, func() { t1 = eng.Now() })
	eng.Run()
	if want := des.ByteDur(1e6, 200*0.94) + des.Cycles(90, 1.245); t0 != want {
		t.Fatalf("dim-0 hop = %v, want intra class %v", t0, want)
	}
	// Dim 1 overrides the inter class's 25 GB/s and 500 cycles but keeps
	// its efficiency.
	if want := des.ByteDur(1e6, 100*0.94) + des.Cycles(10, 1.245); t1 != want {
		t.Fatalf("dim-1 hop = %v, want overridden class %v", t1, want)
	}
}
