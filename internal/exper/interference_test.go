package exper

import (
	"testing"

	"acesim/internal/collectives"
	"acesim/internal/noc"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// TestInterferenceIsolation checks the isolation half of the multi-job
// story: two jobs on disjoint sub-torus partitions share no resources, so
// each must report exactly its solo timeline (slowdown 1.0, well under
// the 1% acceptance bound).
func TestInterferenceIsolation(t *testing.T) {
	full := noc.Torus3(4, 2, 2)
	spec := system.NewSpec(full, system.ACE)
	partA := &noc.Partition{Full: full, Shape: noc.Torus3(4, 1, 2)}
	partB := &noc.Partition{Full: full, Shape: noc.Torus3(4, 1, 2), Origin: []int{0, 1, 0}}
	m := workload.ResNet50(workload.ResNet50Batch)
	res, err := Interference(spec, []InterferenceJob{
		{Name: "a", Part: partA, Model: m},
		{Name: "b", Part: partB, Model: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("got %d job results", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Co != j.Solo {
			t.Fatalf("job %s: partitioned co-run %v != solo %v (slowdown %.4f)", j.Name, j.Co, j.Solo, j.Slowdown)
		}
		if j.Slowdown != 1.0 {
			t.Fatalf("job %s: slowdown %v on a private partition", j.Name, j.Slowdown)
		}
	}
}

// TestInterferenceSharedFabric checks the interference half: jobs sharing
// the full fabric slow each other measurably (the Section III trend at
// fabric scale). Two symmetric standing all-reduce streams halve the
// fabric between them; a training job co-running with a stream is slowed
// less — its collectives are mostly overlapped, and LIFO arbitration
// favors the later-issued training chunks — but still measurably.
func TestInterferenceSharedFabric(t *testing.T) {
	spec := system.NewSpec(noc.Torus3(4, 2, 2), system.BaselineCommOpt)

	// Stream vs stream: both contend for every link; the slowdown is
	// nearly 2x (measured ~1.7x, pipelining hides some of it).
	res, err := Interference(spec, []InterferenceJob{
		{Name: "s1", Stream: StreamSpec{Kind: collectives.AllReduce, Bytes: 16 << 20, Count: 16}},
		{Name: "s2", Stream: StreamSpec{Kind: collectives.AllReduce, Bytes: 16 << 20, Count: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Kind != "stream" {
			t.Fatalf("job %s kind = %s", j.Name, j.Kind)
		}
		if j.Slowdown <= 1.3 {
			t.Fatalf("stream %s not measurably slowed by co-running collective traffic: %.4f", j.Name, j.Slowdown)
		}
	}

	// Training vs standing stream: both directions of interference are
	// visible, the stream's more than the well-overlapped training job's.
	m := workload.ResNet50(workload.ResNet50Batch)
	res, err = Interference(spec, []InterferenceJob{
		{Name: "train", Model: m},
		{Name: "noise", Stream: StreamSpec{Kind: collectives.AllReduce, Bytes: 32 << 20, Count: 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	train, noise := res.Jobs[0], res.Jobs[1]
	if train.Kind != "training" || noise.Kind != "stream" {
		t.Fatalf("job kinds: %s, %s", train.Kind, noise.Kind)
	}
	if train.Slowdown <= 1.001 {
		t.Fatalf("training job not slowed at all by co-running collective traffic: %.4f", train.Slowdown)
	}
	if noise.Slowdown <= 1.05 {
		t.Fatalf("stream not measurably slowed by the co-running training job: %.4f", noise.Slowdown)
	}
	if train.Training == nil || train.Training.IterTime != train.Co {
		t.Fatal("co-run training result not threaded through")
	}
}

// TestTwoIdenticalJobsSharedFabric is the tag-namespace regression: two
// identical training jobs on one fabric issue identical collective
// sequences, which a single-stream runtime would fuse into one collective
// ("attached twice" panic) and un-prefixed tags would cross-signal. With
// per-job streams and namespaced tags both must run to completion.
func TestTwoIdenticalJobsSharedFabric(t *testing.T) {
	spec := system.NewSpec(noc.Torus3(4, 2, 2), system.ACE)
	m := workload.ResNet50(workload.ResNet50Batch)
	res, err := Interference(spec, []InterferenceJob{
		{Name: "a", Model: m},
		{Name: "b", Model: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Solo != res.Jobs[1].Solo {
		t.Fatalf("identical jobs have different solo baselines: %v vs %v", res.Jobs[0].Solo, res.Jobs[1].Solo)
	}
	for _, j := range res.Jobs {
		if j.Slowdown < 1.0 {
			t.Fatalf("job %s faster under contention: %.4f", j.Name, j.Slowdown)
		}
		if j.Training == nil || j.Training.Collectives != 2*len(m.Layers) {
			t.Fatalf("job %s: wrong collective count under co-run", j.Name)
		}
	}
	// The fabric is time-shared, so at least one job must pay for the
	// other's kernels and traffic.
	if res.MaxSlowdown() <= 1.0 {
		t.Fatalf("no contention measured between identical co-located jobs: %+v", res.Jobs)
	}
}

// TestInterferenceDeterminism: the multi-job timeline is a pure function
// of the configuration, regardless of job mix.
func TestInterferenceDeterminism(t *testing.T) {
	spec := system.NewSpec(noc.Torus3(4, 2, 2), system.ACE)
	m := workload.ResNet50(workload.ResNet50Batch)
	run := func() InterferenceResult {
		res, err := Interference(spec, []InterferenceJob{
			{Name: "train", Model: m},
			{Name: "noise", Stream: StreamSpec{Kind: collectives.AllReduce, Bytes: 4 << 20, Count: 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Jobs {
		if a.Jobs[i].Co != b.Jobs[i].Co || a.Jobs[i].Solo != b.Jobs[i].Solo {
			t.Fatalf("job %d non-deterministic: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}

func TestInterferenceValidation(t *testing.T) {
	full := noc.Torus3(4, 2, 2)
	spec := system.NewSpec(full, system.ACE)
	m := workload.ResNet50(workload.ResNet50Batch)
	part := &noc.Partition{Full: full, Shape: noc.Torus3(4, 1, 2)}
	// Mixed shared + partitioned placements.
	if _, err := Interference(spec, []InterferenceJob{
		{Name: "a", Model: m},
		{Name: "b", Part: part, Model: m},
	}); err == nil {
		t.Fatal("mixed placements accepted")
	}
	// Overlapping partitions.
	if _, err := Interference(spec, []InterferenceJob{
		{Name: "a", Part: part, Model: m},
		{Name: "b", Part: part, Model: m},
	}); err == nil {
		t.Fatal("overlapping partitions accepted")
	}
	// Stream without a payload.
	if _, err := Interference(spec, []InterferenceJob{{Name: "s"}}); err == nil {
		t.Fatal("empty stream accepted")
	}
	// No jobs.
	if _, err := Interference(spec, nil); err == nil {
		t.Fatal("empty job list accepted")
	}
}

// TestRespec re-derives shape-dependent spec fields for a carve-out.
func TestRespec(t *testing.T) {
	spec := system.NewSpec(noc.Torus3(4, 2, 2), system.ACE)
	sub := system.Respec(spec, noc.Torus3(4, 1, 2))
	// 4x1x2: local RS + horizontal AR + local AG = 3 phases (V degenerate).
	if sub.ACE.Phases != 3 {
		t.Fatalf("respec phases = %d, want 3", sub.ACE.Phases)
	}
	if _, err := system.Build(sub); err != nil {
		t.Fatal(err)
	}
	// A training run on the re-specced sub-torus must work end to end.
	res, _, err := RunTraining(sub, workload.ResNet50(workload.ResNet50Batch), training.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime <= 0 {
		t.Fatal("no progress on sub-torus")
	}
}
