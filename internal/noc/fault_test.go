package noc

import (
	"testing"

	"acesim/internal/des"
)

// testPolicy reissues a dropped transfer after 1 us, doubling per attempt,
// and parks it after maxRetries timed reissues.
func testPolicy(maxRetries int) RecoveryPolicy {
	return RecoveryPolicy{Timeout: des.Microsecond, Backoff: 2, MaxRetries: maxRetries}
}

// faultNet builds a fault-enabled network under pol.
func faultNet(t *testing.T, eng *des.Engine, topo Topology, pol RecoveryPolicy) *Network {
	t.Helper()
	n, err := New(eng, testConfig(topo))
	if err != nil {
		t.Fatal(err)
	}
	n.EnableFaults(pol)
	return n
}

func TestSetLinkUpRequiresEnableFaults(t *testing.T) {
	n, _ := New(des.NewEngine(), testConfig(Torus3(4, 1, 1)))
	defer func() {
		if recover() == nil {
			t.Fatal("SetLinkUp without EnableFaults should panic")
		}
	}()
	n.SetLinkUp(0, DimLocal, +1, false)
}

func TestDegradeLinkTiming(t *testing.T) {
	// Degradation halves the rate for future requests; it needs no
	// EnableFaults because it never drops traffic.
	eng := des.NewEngine()
	n, _ := New(eng, testConfig(Torus3(4, 1, 1)))
	n.DegradeLink(0, DimLocal, +1, 0.5)
	var t1 des.Time
	n.SendNeighbor(0, DimLocal, +1, 1e6, func() { t1 = eng.Now() })
	eng.Run()
	want := des.ByteDur(1e6, 200*0.94*0.5) + des.Cycles(90, 1.245)
	if t1 != want {
		t.Fatalf("degraded hop = %v, want %v", t1, want)
	}
	// Factor 1 restores the healthy rate.
	n.DegradeLink(0, DimLocal, +1, 1)
	var t2, t3 des.Time
	t2 = eng.Now()
	n.SendNeighbor(0, DimLocal, +1, 1e6, func() { t3 = eng.Now() })
	eng.Run()
	if t3-t2 != des.ByteDur(1e6, 200*0.94)+des.Cycles(90, 1.245) {
		t.Fatalf("restored hop = %v", t3-t2)
	}
}

func TestDegradeLinkBadFactor(t *testing.T) {
	n, _ := New(des.NewEngine(), testConfig(Torus3(4, 1, 1)))
	defer func() {
		if recover() == nil {
			t.Fatal("factor <= 0 should panic")
		}
	}()
	n.DegradeLink(0, DimLocal, +1, 0)
}

func TestDeadLinkDetoursReverseRing(t *testing.T) {
	// The dead (0,+1) link detours size-1 hops the other way round the
	// ring, starting on the (0,-1) wire. On a 2-ring both wires join the
	// same two nodes, so the detour is that one live -1 wire.
	for _, size := range []int{4, 2} {
		eng := des.NewEngine()
		n := faultNet(t, eng, Torus3(size, 1, 1), testPolicy(10))
		n.SetLinkUp(0, DimLocal, +1, false)
		var arrive des.Time
		n.SendNeighbor(0, DimLocal, +1, 1e6, func() { arrive = eng.Now() })
		eng.Run()
		hops := des.Time(size - 1)
		hop := des.ByteDur(1e6, 200*0.94) + des.Cycles(90, 1.245)
		if arrive != hops*hop {
			t.Fatalf("%d-ring: detour arrived at %v, want %d hops = %v", size, arrive, hops, hops*hop)
		}
		if n.Reroutes() != 1 || n.Drops() != 0 {
			t.Fatalf("%d-ring: reroutes=%d drops=%d, want 1 reroute and no drops", size, n.Reroutes(), n.Drops())
		}
		if n.Link(0, DimLocal, -1).Bytes() != 1e6 {
			t.Fatalf("%d-ring: -1 wire carried %d bytes, want the detour on it", size, n.Link(0, DimLocal, -1).Bytes())
		}
		if n.InjectedBytes() != 1e6 {
			t.Fatalf("%d-ring: injected = %d, want one injection despite the detour", size, n.InjectedBytes())
		}
	}
}

func TestDeadLinkDogleg(t *testing.T) {
	// Down every dim-0 reverse link so the ring walk is unavailable; the
	// detour doglegs through dim 1: src -> side -> across -> back (3 hops).
	eng := des.NewEngine()
	topo := Torus3(4, 2, 1)
	n := faultNet(t, eng, topo, testPolicy(10))
	n.SetLinkUp(topo.ID(0, 0, 0), 0, +1, false)
	for x := 0; x < 4; x++ {
		n.SetLinkUp(topo.ID(x, 0, 0), 0, -1, false)
	}
	delivered := false
	n.SendNeighbor(topo.ID(0, 0, 0), 0, +1, 1e3, func() { delivered = true })
	eng.Run()
	if !delivered {
		t.Fatal("dogleg detour did not deliver")
	}
	if n.Reroutes() != 1 {
		t.Fatalf("reroutes = %d, want 1", n.Reroutes())
	}
	if n.TotalWireBytes() != 3e3 {
		t.Fatalf("wire bytes = %d, want 3 hops' worth", n.TotalWireBytes())
	}
	// Dim 1 has size 2: the sidestep leaves on the +1 wire, and the step
	// back rides the -1 wire the planner checked, not the +1 wire that
	// joins the same two nodes.
	b := topo.ID(1, 1, 0)
	if n.Link(b, 1, -1).Bytes() != 1e3 || n.Link(b, 1, +1).Bytes() != 0 {
		t.Fatalf("return leg: -1 wire %d bytes, +1 wire %d bytes, want it on the -1 wire",
			n.Link(b, 1, -1).Bytes(), n.Link(b, 1, +1).Bytes())
	}
}

func TestDeadLinkDropsWithoutDetour(t *testing.T) {
	// A 2-ring with both directions down has no healthy alternative: the
	// send drops at once, and the timed retries deliver after the link
	// restores, counting the transfer as recovered.
	eng := des.NewEngine()
	topo := Torus3(2, 1, 1)
	n := faultNet(t, eng, topo, testPolicy(10))
	n.SetLinkUp(0, DimLocal, +1, false)
	n.SetLinkUp(0, DimLocal, -1, false)
	delivered := false
	n.SendNeighbor(0, DimLocal, +1, 1e3, func() { delivered = true })
	if n.Drops() != 1 || delivered || n.Reroutes() != 0 {
		t.Fatalf("want immediate drop, got drops=%d reroutes=%d delivered=%v", n.Drops(), n.Reroutes(), delivered)
	}
	if r := n.Recovery(); r.Retries != 1 || r.Parked != 0 || r.FirstDropAt != 0 {
		t.Fatalf("recovery after the first drop = %+v, want one timed retry", r)
	}
	eng.At(5*des.Microsecond, func() { n.SetLinkUp(0, DimLocal, +1, true) })
	eng.Run()
	r := n.Recovery()
	if !delivered || r.Recovered != 1 || r.LastRecoverAt <= 5*des.Microsecond {
		t.Fatalf("delivered=%v recovery=%+v after restore", delivered, r)
	}
	// Retries at 1, 3 and 7 us: the first two find the link still down.
	if r.Drops != 3 || r.Retries != 3 || r.RecoveryTime() != r.LastRecoverAt {
		t.Fatalf("recovery = %+v, want 3 drops and 3 retries from t=0", r)
	}
}

func TestInFlightDropOnEpochBump(t *testing.T) {
	// A message already serializing when its link fails is dropped at its
	// would-be delivery time, not delivered for free. The link is still
	// down, so with no timed retries allowed the transfer parks.
	eng := des.NewEngine()
	n := faultNet(t, eng, Torus3(4, 1, 1), testPolicy(0))
	delivered := false
	n.SendNeighbor(0, DimLocal, +1, 1e6, func() { delivered = true })
	eng.After(des.Nanosecond, func() { n.SetLinkUp(0, DimLocal, +1, false) })
	eng.Run()
	if delivered {
		t.Fatal("in-flight message delivered across a dead link")
	}
	if r := n.Recovery(); n.Drops() != 1 || r.Parked != 1 || r.Retries != 0 || n.ParkedTransfers() != 1 {
		t.Fatalf("drops=%d recovery=%+v parked-now=%d, want one drop parked on the dead link",
			n.Drops(), r, n.ParkedTransfers())
	}
	// The restore wakes it, and the reissue delivers.
	n.SetLinkUp(0, DimLocal, +1, true)
	eng.Run()
	if r := n.Recovery(); !delivered || r.Woken != 1 || r.Recovered != 1 || n.ParkedTransfers() != 0 {
		t.Fatalf("delivered=%v recovery=%+v parked-now=%d after restore", delivered, r, n.ParkedTransfers())
	}
}

func TestInFlightDropTransient(t *testing.T) {
	// Down-then-up underneath an in-flight message: the delivery-time epoch
	// check still drops it, but the link is up again, so the transfer takes
	// a timed retry even with no retries left — parking it would strand it,
	// since its restore already happened.
	eng := des.NewEngine()
	n := faultNet(t, eng, Torus3(4, 1, 1), testPolicy(0))
	delivered := false
	n.SendNeighbor(0, DimLocal, +1, 1e6, func() { delivered = true })
	eng.After(des.Nanosecond, func() {
		n.SetLinkUp(0, DimLocal, +1, false)
		n.SetLinkUp(0, DimLocal, +1, true)
	})
	eng.Run()
	r := n.Recovery()
	if !delivered || r.Drops != 1 || r.Parked != 0 || r.Retries != 1 || r.Recovered != 1 {
		t.Fatalf("delivered=%v recovery=%+v, want one transient drop retried and delivered", delivered, r)
	}
}

func TestRoutedTrafficDropsNoDetour(t *testing.T) {
	// XYZ-routed traffic is not detoured: a dead link on the path drops
	// the transfer, and the retry succeeds once the path heals.
	eng := des.NewEngine()
	n := faultNet(t, eng, Torus3(4, 1, 1), testPolicy(10))
	n.SetLinkUp(1, DimLocal, +1, false)
	delivered := false
	n.SendRouted(0, 2, 1e3, func() { delivered = true }) // 0 -> 1 -> 2
	eng.RunUntil(des.Microsecond / 2)
	if delivered || n.Drops() != 1 || n.Reroutes() != 0 {
		t.Fatalf("delivered=%v drops=%d reroutes=%d, want one drop and no reroute",
			delivered, n.Drops(), n.Reroutes())
	}
	n.SetLinkUp(1, DimLocal, +1, true)
	eng.Run()
	if !delivered || n.Recovery().Recovered != 1 || n.Reroutes() != 0 {
		t.Fatalf("delivered=%v recovery=%+v reroutes=%d after restore", delivered, n.Recovery(), n.Reroutes())
	}
}

func TestMeshBoundaryHopLiveness(t *testing.T) {
	// The mesh boundary closure's reverse walk checks liveness per hop: a
	// dead interior link drops the boundary transfer.
	eng := des.NewEngine()
	topo := Topology{Dims: []DimSpec{{Size: 4}}}
	n := faultNet(t, eng, topo, testPolicy(0))
	n.SetLinkUp(2, 0, -1, false) // second hop of the walk 3 -> 2 -> 1 -> 0
	delivered := false
	n.SendNeighbor(3, 0, +1, 1e3, func() { delivered = true })
	eng.Run()
	if delivered || n.Drops() != 1 || n.ParkedTransfers() != 1 || n.Reroutes() != 0 {
		t.Fatalf("delivered=%v drops=%d parked=%d, want boundary walk dropped on its dead hop",
			delivered, n.Drops(), n.ParkedTransfers())
	}
}

func TestSetLinkUpIdempotent(t *testing.T) {
	// Re-downing a down link must not bump the epoch again, and
	// re-restoring an up link must not wake parked transfers again.
	eng := des.NewEngine()
	n := faultNet(t, eng, Torus3(4, 1, 1), testPolicy(0))
	n.SetLinkUp(0, DimLocal, +1, false)
	e := n.mustLink(0, DimLocal, +1).epoch
	n.SetLinkUp(0, DimLocal, +1, false)
	if n.mustLink(0, DimLocal, +1).epoch != e {
		t.Fatal("re-downing bumped the epoch")
	}
	// Park a routed transfer on the dead link; restoring another link
	// wakes it, and its reissue parks again on the still-dead one.
	n.SetLinkUp(2, DimLocal, +1, false)
	n.SendRouted(0, 1, 1e3, nil_)
	n.SetLinkUp(2, DimLocal, +1, true)
	eng.Run()
	if r := n.Recovery(); r.Woken != 1 || r.Parked != 2 || n.ParkedTransfers() != 1 {
		t.Fatalf("recovery = %+v parked-now=%d, want parked, woken once, parked again", r, n.ParkedTransfers())
	}
	n.SetLinkUp(2, DimLocal, +1, true)
	eng.Run()
	if r := n.Recovery(); r.Woken != 1 || n.ParkedTransfers() != 1 {
		t.Fatalf("re-restoring an up link woke parked transfers: %+v", r)
	}
}
