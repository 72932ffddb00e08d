package collectives

import (
	"math/rand"
	"testing"

	"acesim/internal/des"
	"acesim/internal/noc"
)

// linkRef identifies one unidirectional link for the chaos schedule.
type linkRef struct {
	node noc.NodeID
	dim  noc.Dim
	dir  int
}

// randomTopo draws a 1–3 dimensional shape with sizes 2–4 and random
// wrap flags (N > 1 guaranteed by redraw).
func randomTopo(rng *rand.Rand) noc.Topology {
	for {
		nd := 1 + rng.Intn(3)
		s := noc.Topology{Dims: make([]noc.DimSpec, nd)}
		for d := range s.Dims {
			s.Dims[d] = noc.DimSpec{Size: 2 + rng.Intn(3), Wrap: rng.Intn(2) == 0}
		}
		if s.N() > 1 {
			return s
		}
	}
}

// randomLinks draws up to k distinct existing links of the topology.
func randomLinks(rng *rand.Rand, t noc.Topology, k int) []linkRef {
	var out []linkRef
	seen := map[linkRef]bool{}
	for tries := 0; tries < 16*k && len(out) < k; tries++ {
		l := linkRef{
			node: noc.NodeID(rng.Intn(t.N())),
			dim:  noc.Dim(rng.Intn(t.NumDims())),
			dir:  1 - 2*rng.Intn(2),
		}
		if seen[l] || !t.HasLink(l.node, l.dim, l.dir) {
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	return out
}

// TestChaosLinkFailures is the chaos/property suite for the recovery
// path: over 24 randomized topologies, an all-reduce runs while a random
// schedule of link failures and restores fires mid-flight (every downed
// link comes back before 1.2x the clean duration). Properties asserted:
//
//  1. The collective completes on every node — no deadlock, no wedge —
//     whatever the interleaving of drops, detours, parks and wakes.
//  2. A faulted run is never faster than the clean run.
//  3. Across the whole suite the schedules actually hit traffic (total
//     drops + reroutes > 0), so the properties are not vacuous.
//  4. The plan the runtime executed is numerically correct on real data
//     (interpretPlan replay): recovery reissues byte-identical chunk
//     messages, so it cannot corrupt the reduction — the replay pins the
//     schedule itself.
//
// Run under -race in CI (chaos-smoke) to also shake out data races in
// the fault path.
func TestChaosLinkFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	var totalDrops, totalReroutes int64
	for shape := 0; shape < 24; shape++ {
		tor := randomTopo(rng)
		plan := HierarchicalAllReduce(tor)
		if err := plan.Validate(); err != nil {
			t.Fatalf("%s: %v", tor, err)
		}
		const bytes = 1 << 20
		spec := Spec{Kind: AllReduce, Bytes: bytes, Plan: plan, Name: "chaos-ar"}

		// Clean reference run: its duration bounds the fault schedule.
		clean := buildSys(t, tor, "ideal", DefaultConfig())
		cleanDur := clean.runSingle(t, spec)

		// Faulted run: same platform, recovery installed, random link
		// down/up pairs inside the clean-run window.
		pol := noc.RecoveryPolicy{Timeout: cleanDur / 50, Backoff: 2, MaxRetries: 10}
		if pol.Timeout < des.Microsecond {
			pol.Timeout = des.Microsecond
		}
		s := buildSys(t, tor, "ideal", DefaultConfig())
		s.net.EnableFaults(pol)
		for _, l := range randomLinks(rng, tor, 1+rng.Intn(3)) {
			l := l
			downAt := des.Time(rng.Int63n(int64(cleanDur)))
			upAt := downAt + 1 + des.Time(rng.Int63n(int64(cleanDur)/5+1))
			s.eng.At(downAt, func() { s.net.SetLinkUp(l.node, l.dim, l.dir, false) })
			s.eng.At(upAt, func() { s.net.SetLinkUp(l.node, l.dim, l.dir, true) })
		}
		done := 0
		for i := 0; i < s.rt.Nodes(); i++ {
			s.rt.Issue(noc.NodeID(i), spec, func() { done++ })
		}
		s.eng.Run()
		if done != s.rt.Nodes() {
			t.Fatalf("%s: collective wedged on %d/%d nodes after fault schedule\n%s",
				tor, done, s.rt.Nodes(), s.rt.DebugState())
		}
		if s.net.ParkedTransfers() != 0 {
			t.Fatalf("%s: %d transfers still parked after completion", tor, s.net.ParkedTransfers())
		}
		rec := s.net.Recovery()
		totalDrops += int64(rec.Drops)
		totalReroutes += s.net.Reroutes()

		// Data-level correctness of the executed schedule.
		u := 2*tor.N() + 3
		init := make([][]int, tor.N())
		want := make([]int, u)
		for n := range init {
			init[n] = make([]int, u)
			for e := range init[n] {
				v := rng.Intn(1000) + 1
				init[n][e] = v
				want[e] += v
			}
		}
		data := interpretPlan(t, tor, plan, init)
		for n, st := range data {
			if len(st) != u {
				t.Fatalf("%s: node %d ends with %d/%d elements", tor, n, len(st), u)
			}
			for e := 0; e < u; e++ {
				if st[e] != want[e] {
					t.Fatalf("%s: node %d element %d = %d, want %d", tor, n, e, st[e], want[e])
				}
			}
		}
	}
	if totalDrops+totalReroutes == 0 {
		t.Fatalf("chaos suite never hit traffic (0 drops, 0 reroutes): schedules are vacuous")
	}
	t.Logf("chaos suite: %d drops, %d reroutes across 24 shapes", totalDrops, totalReroutes)
}

// TestChaosWedgeReportsGracefully pins the graceful-degradation contract:
// a link that never comes back (and cannot be detoured) parks its
// transfers after MaxRetries, the engine drains instead of spinning, and
// the incomplete collective is observable — not a hang, not a panic.
func TestChaosWedgeReportsGracefully(t *testing.T) {
	tor := noc.Grid(2) // 2-ring: downing both directions leaves no detour
	s := buildSys(t, tor, "ideal", DefaultConfig())
	s.net.EnableFaults(noc.RecoveryPolicy{Timeout: des.Microsecond, Backoff: 2, MaxRetries: 3})
	s.eng.At(0, func() {
		s.net.SetLinkUp(0, 0, +1, false)
		s.net.SetLinkUp(0, 0, -1, false)
		s.net.SetLinkUp(1, 0, +1, false)
		s.net.SetLinkUp(1, 0, -1, false)
	})
	done := 0
	spec := Spec{Kind: AllReduce, Bytes: 1 << 16, Plan: HierarchicalAllReduce(tor), Name: "wedge"}
	for i := 0; i < s.rt.Nodes(); i++ {
		s.rt.Issue(noc.NodeID(i), spec, func() { done++ })
	}
	s.eng.Run() // must drain, not hang
	if done == s.rt.Nodes() {
		t.Fatal("collective completed across a permanently dead fabric")
	}
	if s.net.ParkedTransfers() == 0 {
		t.Fatal("no transfers parked: the wedge was not the recovery path's doing")
	}
	if s.net.Recovery().Drops == 0 {
		t.Fatal("no drops recorded")
	}
}
