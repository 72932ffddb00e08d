package graph_test

import (
	"runtime"
	"testing"
	"unsafe"

	"acesim/internal/collectives"
	"acesim/internal/graph"
	"acesim/internal/workload"
)

// TestOpSize pins Op at 128 bytes on 64-bit platforms: lowering stores
// one Op per op per rank, so padding between scattered one-byte fields
// (144 bytes) is paid on every op of every lowered graph.
func TestOpSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(graph.Op{}); n != 128 {
		t.Fatalf("graph.Op is %d bytes, want 128", n)
	}
}

// TestLoweringAllocBudget pins the allocations of setting up a lowered
// training graph: FromModel presizes the op list and one shared deps
// arena after the first rank and builds each layer's names once, and
// Validate resolves the graph into flat tables without a set per op. A
// per-op allocation that creeps back into either fails here. Each budget
// is the measured count plus 5%. Validate's count moves by a few with
// the seed of its ID map's hash (a table that fills first splits), so it
// is averaged over more runs and measured as the largest of 80 samples.
func TestLoweringAllocBudget(t *testing.T) {
	m := workload.ResNet50(workload.ResNet50Batch)
	cfg := graph.ModelConfig{Iterations: 1, Overlap: true}
	var g *graph.Graph
	var err error
	lower := testing.AllocsPerRun(5, func() { g, err = graph.FromModel(m, cfg, 64) })
	if err != nil {
		t.Fatal(err)
	}
	validate := testing.AllocsPerRun(20, func() { err = g.Validate() })
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		allocs   float64
		measured float64
	}{
		{"FromModel(ResNet-50, 1 iteration, 64 ranks)", lower, 252},
		{"Validate", validate, 79},
	} {
		budget := c.measured + c.measured/20
		if c.allocs > budget && !raceEnabled {
			t.Errorf("%s: %.0f allocs/run, budget %.0f (measured %.0f + 5%%)", c.name, c.allocs, budget, c.measured)
		}
		t.Logf("%s: %.0f allocs/run (budget %.0f)", c.name, c.allocs, budget)
	}
}

// TestValidateManyRanksFewOps checks that validating costs what the ops
// hold, not what the declared rank count could hold: a three-op graph
// at the rank limit, with a final op and a group naming the last rank,
// must not allocate tables by rank.
func TestValidateManyRanksFewOps(t *testing.T) {
	const ranks = 1 << 20
	g := &graph.Graph{Name: "sparse", Ranks: ranks, Ops: []graph.Op{
		{ID: 0, Kind: graph.OpCompute, MACs: 1},
		{ID: 1, Kind: graph.OpCollective, Coll: collectives.AllReduce, Bytes: 1,
			Group: []int{0, ranks - 1}, Deps: []int{0}},
		{ID: 2, Kind: graph.OpMark, Final: true, Deps: []int{1}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 16 << 10
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > budget {
		t.Errorf("Validate on %d ranks and %d ops: %d bytes/run, budget %d", ranks, len(g.Ops), perRun, budget)
	}
}
