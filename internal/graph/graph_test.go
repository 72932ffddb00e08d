package graph_test

import (
	"bytes"
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"acesim/internal/collectives"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/system"
	"acesim/internal/workload"
)

var torus16 = noc.Torus3(4, 2, 2)

func mustValidate(t *testing.T, g *graph.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		g    graph.Graph
		want string
	}{
		{"no ops", graph.Graph{Ranks: 2}, "no ops"},
		{"bad ranks", graph.Graph{Ranks: 0, Ops: []graph.Op{{Kind: graph.OpMark}}}, "non-positive ranks"},
		{"dup id", graph.Graph{Ranks: 2, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpMark}, {ID: 0, Kind: graph.OpMark}}}, "duplicate"},
		{"rank range", graph.Graph{Ranks: 2, Ops: []graph.Op{{ID: 0, Rank: 2, Kind: graph.OpMark}}}, "out of range"},
		{"undefined dep", graph.Graph{Ranks: 2, Ops: []graph.Op{{ID: 0, Kind: graph.OpMark, Deps: []int{7}}}}, "undefined"},
		{"self dep", graph.Graph{Ranks: 2, Ops: []graph.Op{{ID: 0, Kind: graph.OpMark, Deps: []int{0}}}}, "itself"},
		{"dep listed twice", graph.Graph{Ranks: 2, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpMark},
			{ID: 1, Kind: graph.OpMark, Deps: []int{0, 0}}}}, "lists dep 0 twice"},
		{"cycle", graph.Graph{Ranks: 2, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpMark, Deps: []int{1}},
			{ID: 1, Kind: graph.OpMark, Deps: []int{0}}}}, "cycle"},
		{"send to self", graph.Graph{Ranks: 2, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpSend, Rank: 1, Dst: 1, Bytes: 8}}}, "self"},
		{"empty collective", graph.Graph{Ranks: 2, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpCollective, Coll: collectives.AllReduce}}}, "non-positive payload"},
		{"group rank twice", graph.Graph{Ranks: 4, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpCollective, Coll: collectives.AllReduce, Bytes: 8, Rank: 0, Group: []int{0, 1, 1}}}},
			"group lists rank 1 twice"},
		{"group without self", graph.Graph{Ranks: 4, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpCollective, Coll: collectives.AllReduce, Bytes: 8, Rank: 0, Group: []int{1, 2}}}},
			"does not include"},
		{"two finals", graph.Graph{Ranks: 2, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpMark, Final: true},
			{ID: 1, Kind: graph.OpMark, Final: true}}}, "more than one final"},
		{"side with macs", graph.Graph{Ranks: 2, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpCompute, Side: true, MACs: 1, Bytes: 8}}}, "side ops"},
		{"group prio bias", graph.Graph{Ranks: 4, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpCollective, Coll: collectives.AllReduce, Bytes: 8,
				Rank: 0, Group: []int{0, 1}, PrioBias: 2}}}, "prio_bias"},
		{"reduce-scatter prio bias", graph.Graph{Ranks: 4, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpCollective, Coll: collectives.ReduceScatter, Bytes: 8,
				PrioBias: 1}}}, "prio_bias"},
		{"mark with payload", graph.Graph{Ranks: 2, Ops: []graph.Op{
			{ID: 0, Kind: graph.OpMark, Bytes: 8}}}, "payload fields"},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		// Schedule must refuse the same graph with the same error, not
		// order it around a dep it cannot resolve.
		if order, serr := c.g.Schedule(); serr == nil || serr.Error() != err.Error() {
			t.Errorf("%s: Schedule returned %v, %v; want Validate's error %q", c.name, order, serr, err)
		}
	}
}

func TestScheduleStableOrder(t *testing.T) {
	// Two independent chains; the schedule must interleave them by ID,
	// regardless of op declaration order.
	g := &graph.Graph{Ranks: 2, Ops: []graph.Op{
		{ID: 3, Kind: graph.OpMark, Rank: 1, Deps: []int{1}},
		{ID: 1, Kind: graph.OpMark, Rank: 1},
		{ID: 2, Kind: graph.OpMark, Rank: 0, Deps: []int{0}},
		{ID: 0, Kind: graph.OpMark, Rank: 0},
	}}
	mustValidate(t, g)
	order, err := g.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("schedule %v, want %v", order, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := workload.ResNet50(2)
	g, err := graph.FromModel(m, graph.ModelConfig{Iterations: 1, Overlap: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := graph.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ranks != g.Ranks || len(back.Ops) != len(g.Ops) {
		t.Fatalf("round trip: %d ranks / %d ops, want %d / %d", back.Ranks, len(back.Ops), g.Ranks, len(g.Ops))
	}
	for i := range g.Ops {
		a, b := g.Ops[i], back.Ops[i]
		// Deps slices may be nil vs empty; compare fields that matter.
		if a.ID != b.ID || a.Kind != b.Kind || a.Rank != b.Rank || a.Bytes != b.Bytes ||
			a.MACs != b.MACs || a.Coll != b.Coll || a.Final != b.Final {
			t.Fatalf("op %d: %+v != %+v", i, a, b)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		``,
		`{"ranks":2}`,
		`{"ranks":2,"ops":[{"id":0,"kind":"warp","rank":0}]}`,
		`{"ranks":2,"ops":[{"id":0,"kind":"collective","rank":0,"coll":"broadcast","bytes":8}]}`,
		`{"ranks":2,"ops":[{"id":0,"kind":"mark","rank":0,"unknown_field":1}]}`,
		`{"ranks":2,"ops":[{"id":0,"kind":"mark","rank":0}]} trailing`,
		`{"ranks":2,"ops":[{"id":0,"kind":"compute","rank":0,"coll":"all-reduce"}]}`,
	}
	for _, src := range cases {
		if _, err := graph.Parse(strings.NewReader(src)); err == nil {
			t.Errorf("parsed: %s", src)
		}
	}
}

// TestHandWrittenGraph runs a small hand-written DAG — two ranks trading
// a point-to-point payload around a full-fabric all-reduce — end to end
// on a real platform.
func TestHandWrittenGraph(t *testing.T) {
	src := `{
	  "name": "hand",
	  "ranks": 16,
	  "ops": [
	    {"id": 0, "kind": "compute", "rank": 0, "name": "k0", "macs": 1e9, "bytes": 1048576},
	    {"id": 1, "kind": "send", "rank": 0, "dst": 9, "bytes": 262144, "deps": [0]},
	    {"id": 2, "kind": "compute", "rank": 9, "name": "k9", "macs": 1e9, "bytes": 1048576, "deps": [1]},
	    {"id": 3, "kind": "collective", "rank": 0, "coll": "all-reduce", "bytes": 4194304, "deps": [0]},
	    {"id": 4, "kind": "mark", "rank": 0, "name": "end", "deps": [3], "final": true}
	  ]
	}`
	g, err := graph.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Give every other rank its all-reduce issue too (SPMD symmetry).
	id := 5
	for r := 1; r < 16; r++ {
		g.Ops = append(g.Ops, graph.Op{
			ID: id, Kind: graph.OpCollective, Rank: r,
			Coll: collectives.AllReduce, Bytes: 4194304, Name: "ar",
		})
		id++
	}
	mustValidate(t, g)
	s, err := system.Build(system.NewSpec(torus16, system.ACE))
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Executor().Start(g)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Run()
	res, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Span <= 0 {
		t.Fatalf("degenerate span %v", res.Span)
	}
	if res.Ranks[9].FinishedAt <= res.Ranks[0].ComputeBusy {
		t.Fatalf("rank 9 finished at %v, before rank 0's kernel+send could deliver", res.Ranks[9].FinishedAt)
	}
	if res.Ranks[0].Issued != 1 {
		t.Fatalf("rank 0 issued %d collectives, want 1", res.Ranks[0].Issued)
	}
}

// TestGroupCollectiveRing exercises subgroup all-reduce/reduce-scatter/
// all-gather and all-to-all over the p2p ring engine, including members
// issuing at different times.
func TestGroupCollectiveRing(t *testing.T) {
	for _, kind := range []collectives.Kind{
		collectives.AllReduce, collectives.ReduceScatter,
		collectives.AllGather, collectives.AllToAll,
	} {
		g := &graph.Graph{Name: "group", Ranks: 16}
		group := []int{0, 5, 10, 15}
		id := 0
		for _, r := range group {
			// Stagger the issues with unequal lead-in kernels.
			g.Ops = append(g.Ops, graph.Op{
				ID: id, Kind: graph.OpCompute, Rank: r, Name: "lead",
				MACs: float64(1+r) * 1e8, Bytes: 1 << 16,
			})
			g.Ops = append(g.Ops, graph.Op{
				ID: id + 1, Kind: graph.OpCollective, Rank: r, Name: "grp",
				Coll: kind, Bytes: 1 << 20, Group: group, Deps: []int{id},
			})
			id += 2
		}
		s, err := system.Build(system.NewSpec(torus16, system.ACE))
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.Executor().Start(g)
		if err != nil {
			t.Fatal(err)
		}
		s.Eng.Run()
		res, err := run.Result()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, r := range group {
			if res.Ranks[r].FinishedAt <= 0 || res.Ranks[r].Issued != 1 {
				t.Fatalf("%s: rank %d degenerate result %+v", kind, r, res.Ranks[r])
			}
		}
	}
}

// TestFromModelMatchesRunner need not exist here: internal/training's
// golden test pins the lowered models to the legacy executor's numbers.
// This test covers the lowering-level invariants instead.
func TestFromModelShape(t *testing.T) {
	m := workload.ResNet50(workload.ResNet50Batch)
	g, err := graph.FromModel(m, graph.ModelConfig{Iterations: 2, Overlap: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, g)
	st := g.Stats()
	// One all-reduce per parameterized layer per iteration per rank.
	if want := 2 * len(m.Layers) * 16; st.Collectives != want {
		t.Fatalf("lowered %d collectives, want %d", st.Collectives, want)
	}
	if st.Sends != 0 {
		t.Fatalf("data-parallel lowering emitted %d sends", st.Sends)
	}
	// Dep-free ops keep nil Deps (WriteJSON omits them), and every op's
	// deps are capped at their length, so appending to one op's deps
	// cannot overwrite another op's in the shared arena.
	for i := range g.Ops {
		op := &g.Ops[i]
		if len(op.Deps) == 0 && op.Deps != nil {
			t.Fatalf("op %d: empty non-nil deps", op.ID)
		}
		if cap(op.Deps) != len(op.Deps) {
			t.Fatalf("op %d: deps len %d, cap %d", op.ID, len(op.Deps), cap(op.Deps))
		}
	}
	// NoOverlap: one fused collective per iteration per rank.
	g2, err := graph.FromModel(m, graph.ModelConfig{Iterations: 2, Overlap: false}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 16; g2.Stats().Collectives != want {
		t.Fatalf("fused lowering has %d collectives, want %d", g2.Stats().Collectives, want)
	}
}

// TestGraphTopologyField: the optional topology spec in the JSON wire
// format round-trips, validates against ranks, and accepts both the
// compact string and the object form.
func TestGraphTopologyField(t *testing.T) {
	src := `{"name":"t","ranks":8,"topology":"4x2m","ops":[{"id":0,"kind":"compute","rank":0,"macs":1,"bytes":1}]}`
	g, err := graph.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Topo == nil || g.Topo.N() != 8 || g.Topo.Wrap(1) {
		t.Fatalf("topology parsed as %+v", g.Topo)
	}
	var buf strings.Builder
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := graph.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Topo == nil || !back.Topo.Equal(*g.Topo) {
		t.Fatalf("topology did not round-trip: %+v", back.Topo)
	}
	// Object form with a link override.
	src = `{"name":"t","ranks":8,"topology":{"dims":[{"size":8,"wrap":true,"gbps":100}]},"ops":[{"id":0,"kind":"compute","rank":0,"macs":1,"bytes":1}]}`
	if g, err = graph.Parse(strings.NewReader(src)); err != nil || g.Topo.Dims[0].GBps != 100 {
		t.Fatalf("object form: %+v, %v", g.Topo, err)
	}
	// Mismatched node count is rejected.
	src = `{"name":"t","ranks":16,"topology":"4x2","ops":[{"id":0,"kind":"compute","rank":0,"macs":1,"bytes":1}]}`
	if _, err := graph.Parse(strings.NewReader(src)); err == nil {
		t.Fatal("rank/topology mismatch accepted")
	}
}

// TestScheduleMatchesReference checks the schedule against a map-based
// Kahn reference on seeded random DAGs: op IDs dense, sparse, negative or
// at the ends of the int range, ops listed in shuffled order, deps drawn
// across ranks, and every tenth graph closed into a cycle that both must
// refuse.
func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idSets := []func(n int) []int{
		func(n int) []int { return rng.Perm(n) },
		func(n int) []int { // gaps: a third of the range unused
			return rng.Perm(n + n/2)[:n]
		},
		func(n int) []int { // sparse and negative
			ids := make([]int, 0, n)
			seen := map[int]bool{}
			for len(ids) < n {
				if id := rng.Intn(1<<20) - 1<<19; !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			return ids
		},
		func(n int) []int { // the ends of the int range
			ids := rng.Perm(n)
			ids[0], ids[n-1] = math.MinInt, math.MaxInt
			return ids
		},
	}
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(60)
		ids := idSets[trial%len(idSets)](n)
		ranks := 1 + rng.Intn(4)
		// ids[k] may depend on any ids[j], j < k, so the graph is acyclic.
		ops := make([]graph.Op, n)
		for k := range ops {
			ops[k] = graph.Op{ID: ids[k], Kind: graph.OpMark, Rank: rng.Intn(ranks)}
			for _, j := range rng.Perm(k)[:rng.Intn(min(k, 4)+1)] {
				ops[k].Deps = append(ops[k].Deps, ids[j])
			}
		}
		cyclic := trial%10 == 9
		if cyclic {
			ops[0].Deps = append(ops[0].Deps, ids[n-1])
			if !slices.Contains(ops[n-1].Deps, ids[0]) {
				ops[n-1].Deps = append(ops[n-1].Deps, ids[0])
			}
		}
		rng.Shuffle(n, func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		g := &graph.Graph{Ranks: ranks, Ops: ops}
		want, acyclic := referenceSchedule(ops)
		got, err := g.Schedule()
		if acyclic == cyclic {
			t.Fatalf("trial %d: reference acyclic=%v for a graph built cyclic=%v", trial, acyclic, cyclic)
		}
		if !acyclic {
			if err == nil || !strings.Contains(err.Error(), "cycle") {
				t.Fatalf("trial %d: cyclic graph scheduled: %v, %v", trial, got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: schedule %v, reference %v", trial, got, want)
		}
	}
}

// referenceSchedule is Kahn's algorithm over maps keyed by op ID with the
// smallest-ID ready op first; false means a cycle left ops unscheduled.
func referenceSchedule(ops []graph.Op) ([]int, bool) {
	indeg := make(map[int]int)
	users := make(map[int][]int)
	ready := &refIDHeap{}
	for _, op := range ops {
		indeg[op.ID] = len(op.Deps)
		for _, d := range op.Deps {
			users[d] = append(users[d], op.ID)
		}
		if len(op.Deps) == 0 {
			heap.Push(ready, op.ID)
		}
	}
	var order []int
	for ready.Len() > 0 {
		id := heap.Pop(ready).(int)
		order = append(order, id)
		for _, u := range users[id] {
			if indeg[u]--; indeg[u] == 0 {
				heap.Push(ready, u)
			}
		}
	}
	return order, len(order) == len(ops)
}

type refIDHeap struct{ sort.IntSlice }

func (h *refIDHeap) Push(x any) { h.IntSlice = append(h.IntSlice, x.(int)) }
func (h *refIDHeap) Pop() any {
	x := h.IntSlice[len(h.IntSlice)-1]
	h.IntSlice = h.IntSlice[:len(h.IntSlice)-1]
	return x
}
