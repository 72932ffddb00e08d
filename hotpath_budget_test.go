// Hot-path allocation budget: the collective and training hot paths
// schedule through pooled records, per-chunk callbacks and static
// context callbacks, not per-hop or per-phase closures. This test pins
// the allocations of a warm run of each workload below at their
// measured count plus 5%, so a closure that creeps back into the chunk
// pipeline, an endpoint or the event queue fails here by name.
package acesim_test

import (
	"testing"

	"acesim/internal/collectives"
	"acesim/internal/exper"
	"acesim/internal/noc"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

func TestHotPathAllocBudget(t *testing.T) {
	torus := noc.Torus3(4, 2, 2)
	collective := func(p system.Preset, kind collectives.Kind, bytes int64) func() (uint64, error) {
		return func() (uint64, error) {
			_, err := exper.RunCollective(system.NewSpec(torus, p), kind, bytes)
			return 0, err
		}
	}
	resnet := workload.ResNet50(workload.ResNet50Batch)
	iteration := func() (uint64, error) {
		spec := system.NewSpec(torus, system.ACE)
		exper.FastGranularity(&spec)
		tc := training.DefaultConfig()
		tc.Iterations = 1
		_, _, err := exper.RunTraining(spec, resnet, tc)
		return 0, err
	}
	cases := []struct {
		name string
		run  func() (uint64, error)
		// measured is the allocation count of one warm run (the
		// closure-per-hop pipeline this replaced took 103,870, 104,180
		// and 575,040); the budget is measured + 5%.
		measured uint64
	}{
		{"allreduce-8MB/ACE", collective(system.ACE, collectives.AllReduce, 8<<20), 20036},
		{"allreduce-8MB/BaselineCommOpt", collective(system.BaselineCommOpt, collectives.AllReduce, 8<<20), 13920},
		// Routed transfers recycle their records and path buffers (this
		// case took 112,262 with one record, route and closure each).
		{"alltoall-4MB/ACE", collective(system.ACE, collectives.AllToAll, 4<<20), 63413},
		{"resnet50-1iter/ACE", iteration, 124888},
	}
	for _, tc := range cases {
		// Warm-up: populate lazy runtime state so the measured run sees
		// steady-state allocation behavior.
		if _, err := tc.run(); err != nil {
			t.Fatal(err)
		}
		allocs, _, err := measureAllocs(tc.run)
		if err != nil {
			t.Fatal(err)
		}
		budget := tc.measured + tc.measured/20
		if allocs > budget {
			t.Errorf("%s: %d allocs/run, budget %d (measured %d + 5%%) — the hot path allocates more",
				tc.name, allocs, budget, tc.measured)
		}
		t.Logf("%s: %d allocs/run (budget %d)", tc.name, allocs, budget)
	}
}
