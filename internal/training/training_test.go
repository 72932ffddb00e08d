package training_test

import (
	"testing"

	"acesim/internal/noc"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

var smallTorus = noc.Torus3(4, 2, 2)

func run(t *testing.T, torus noc.Topology, preset system.Preset, m *workload.Model, tc training.Config) training.Result {
	t.Helper()
	s, err := system.Build(system.NewSpec(torus, preset))
	if err != nil {
		t.Fatal(err)
	}
	l, err := training.Start(s.Executor(), m, s.Spec.Schedule(), tc)
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.Run()
	res, err := l.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResNet50AllPresets(t *testing.T) {
	m := workload.ResNet50(workload.ResNet50Batch)
	results := map[system.Preset]training.Result{}
	for _, p := range system.Presets() {
		res := run(t, smallTorus, p, m, training.DefaultConfig())
		if res.IterTime <= 0 || res.TotalCompute <= 0 {
			t.Fatalf("%s: degenerate result %+v", p, res)
		}
		if res.IterTime < res.TotalCompute {
			t.Fatalf("%s: iteration shorter than compute", p)
		}
		results[p] = res
	}
	// Ideal is the lower bound; ACE must beat every baseline
	// (the paper's headline).
	if results[system.Ideal].IterTime > results[system.ACE].IterTime {
		t.Fatalf("ideal (%v) slower than ACE (%v)",
			results[system.Ideal].IterTime, results[system.ACE].IterTime)
	}
	for _, b := range []system.Preset{system.BaselineNoOverlap, system.BaselineCommOpt, system.BaselineCompOpt} {
		if results[system.ACE].IterTime > results[b].IterTime {
			t.Fatalf("ACE (%v) slower than %s (%v)",
				results[system.ACE].IterTime, b, results[b].IterTime)
		}
	}
	// CompOpt frees SMs and memory for compute, so its compute time must
	// beat CommOpt's (the paper reports 1.75x for ResNet-50).
	if results[system.BaselineCompOpt].TotalCompute >= results[system.BaselineCommOpt].TotalCompute {
		t.Fatal("CompOpt compute should beat CommOpt compute")
	}
}

func TestCollectiveCounts(t *testing.T) {
	m := workload.ResNet50(workload.ResNet50Batch)
	overlapped := run(t, smallTorus, system.ACE, m, training.DefaultConfig())
	// One all-reduce per parameterized layer per iteration.
	if want := 2 * len(m.Layers); overlapped.Collectives != want {
		t.Fatalf("overlap collectives = %d, want %d", overlapped.Collectives, want)
	}
	fused := run(t, smallTorus, system.BaselineNoOverlap, m, training.DefaultConfig())
	if fused.Collectives != 2 {
		t.Fatalf("NoOverlap collectives = %d, want 2 fused", fused.Collectives)
	}
}

func TestWindowsRecorded(t *testing.T) {
	m := workload.ResNet50(workload.ResNet50Batch)
	res := run(t, smallTorus, system.ACE, m, training.DefaultConfig())
	if len(res.FwdWindows) != 2 || len(res.BwdWindows) != 2 {
		t.Fatalf("windows: fwd=%d bwd=%d, want 2 each", len(res.FwdWindows), len(res.BwdWindows))
	}
	for i := range res.FwdWindows {
		if res.FwdWindows[i].Dur() <= 0 || res.BwdWindows[i].Dur() <= 0 {
			t.Fatal("empty pass window")
		}
		if res.FwdWindows[i].End > res.BwdWindows[i].Start {
			t.Fatal("forward window overlaps backward")
		}
	}
}

func TestDLRMHybridAllPresets(t *testing.T) {
	m := workload.DLRM(workload.DLRMBatch)
	for _, p := range system.Presets() {
		res := run(t, smallTorus, p, m, training.DefaultConfig())
		if res.IterTime <= 0 {
			t.Fatalf("%s: no progress", p)
		}
		// Overlap presets: per-layer ARs + fwd/bwd all-to-all per iter.
		wantOverlap := 2 * (len(m.Layers) + 2)
		if p == system.BaselineNoOverlap {
			// fused AR + bwd a2a + blocking fwd a2a per iteration.
			if res.Collectives != 2*3 {
				t.Fatalf("%s: collectives = %d, want 6", p, res.Collectives)
			}
		} else if res.Collectives != wantOverlap {
			t.Fatalf("%s: collectives = %d, want %d", p, res.Collectives, wantOverlap)
		}
	}
}

func TestDLRMOptimizedHelps(t *testing.T) {
	// Fig 12: moving embedding update/lookup off the critical path
	// shortens the iteration. The embedding volume weak-scales with the
	// node count, so the paper demonstrates this at scale; 64 nodes is
	// the smallest size with a clear effect.
	if testing.Short() {
		t.Skip("64-node simulation")
	}
	torus := noc.Torus3(4, 4, 4)
	m := workload.DLRM(workload.DLRMBatch)
	opt := training.DefaultConfig()
	opt.DLRMOptimized = true

	aceDef := run(t, torus, system.ACE, m, training.DefaultConfig())
	aceOpt := run(t, torus, system.ACE, m, opt)
	if aceOpt.IterTime >= aceDef.IterTime {
		t.Fatalf("optimized ACE (%v) not faster than default (%v)", aceOpt.IterTime, aceDef.IterTime)
	}
	if aceOpt.TotalCompute >= aceDef.TotalCompute {
		t.Fatal("optimization should remove embedding kernels from the main stream")
	}
}

func TestGNMTRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("GNMT is the heaviest workload")
	}
	m := workload.GNMT(workload.GNMTBatch)
	res := run(t, smallTorus, system.ACE, m, training.DefaultConfig())
	if res.IterTime <= 0 || res.ExposedComm < 0 {
		t.Fatalf("GNMT degenerate: %+v", res)
	}
}

func TestTrainingDeterminism(t *testing.T) {
	m := workload.ResNet50(workload.ResNet50Batch)
	a := run(t, smallTorus, system.ACE, m, training.DefaultConfig())
	b := run(t, smallTorus, system.ACE, m, training.DefaultConfig())
	if a.IterTime != b.IterTime || a.TotalCompute != b.TotalCompute {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestStartValidation checks that Start refuses a run it cannot lower or
// launch: zero iterations, and an executor with fewer compute streams
// than the platform has nodes.
func TestStartValidation(t *testing.T) {
	s, err := system.Build(system.NewSpec(smallTorus, system.ACE))
	if err != nil {
		t.Fatal(err)
	}
	m := workload.ResNet50(1)
	if _, err := training.Start(s.Executor(), m, training.Overlap, training.Config{Iterations: 0}); err == nil {
		t.Fatal("zero iterations accepted")
	}
	x := s.Executor()
	x.Computes = x.Computes[1:]
	if _, err := training.Start(x, m, training.Overlap, training.DefaultConfig()); err == nil {
		t.Fatal("executor with a compute stream missing accepted")
	}
}

func TestExposureShrinksWithACE(t *testing.T) {
	// The core claim: ACE exposes less communication than the
	// compute-optimized baseline at equal compute resources.
	m := workload.ResNet50(workload.ResNet50Batch)
	ace := run(t, smallTorus, system.ACE, m, training.DefaultConfig())
	compOpt := run(t, smallTorus, system.BaselineCompOpt, m, training.DefaultConfig())
	if ace.ExposedComm >= compOpt.ExposedComm {
		t.Fatalf("ACE exposed %v, CompOpt exposed %v", ace.ExposedComm, compOpt.ExposedComm)
	}
}
