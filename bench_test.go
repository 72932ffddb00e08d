// Benchmarks: one testing.B benchmark per table and figure of the paper's
// evaluation. Each runs a scaled (16-32 NPU) version of the experiment so
// `go test -bench=.` finishes in minutes; the cmd/acesim harness runs the
// full-size versions and EXPERIMENTS.md records the results. Reported
// custom metrics carry the experiment's headline quantity.
package acesim_test

import (
	"testing"

	"acesim/examples/scenarios"
	"acesim/internal/collectives"
	"acesim/internal/exper"
	"acesim/internal/hwmodel"
	"acesim/internal/noc"
	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

var benchTorus = noc.Torus3(4, 2, 2)

// benchBundled runs the embedded bundled scenario, after trim shrinks it
// to benchmark size, b.N times on one worker (the cost of the sequential
// sweep) and returns the last run's results. The trimmed sweep is not
// the figure the file's assertions describe, so they are dropped.
func benchBundled(b *testing.B, name string, trim func(*scenario.Scenario)) *runner.Results {
	sc, err := scenarios.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	if trim != nil {
		trim(sc)
	}
	sc.Assertions = nil
	var res *runner.Results
	for i := 0; i < b.N; i++ {
		if res, err = runner.Run(sc, runner.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// keepPoints trims the platform's override points to those keep accepts.
func keepPoints(sc *scenario.Scenario, keep func(scenario.Overrides) bool) {
	var kept []scenario.Overrides
	for _, o := range sc.Platform.Overrides {
		if keep(o) {
			kept = append(kept, o)
		}
	}
	sc.Platform.Overrides = kept
}

// BenchmarkFig4 regenerates the compute-communication interference
// microbenchmark (slowdown of an all-reduce under a concurrent kernel).
func BenchmarkFig4(b *testing.B) {
	res := benchBundled(b, "fig4.json", func(sc *scenario.Scenario) {
		sc.Jobs[0].PayloadsMB = []float64{10}
		sc.Jobs[0].Kernels = []scenario.Kernel{{GEMMN: 1000}, {EmbBatch: 10000}}
		sc.Trace = nil // the figure's numbers, without the span export
	})
	b.ReportMetric(res.Units[len(res.Units)-1].Metrics["slowdown"], "slowdown")
}

// BenchmarkFig5 regenerates the comm-memory-bandwidth sensitivity sweep.
func BenchmarkFig5(b *testing.B) {
	res := benchBundled(b, "fig5.json", func(sc *scenario.Scenario) {
		sc.Platform.Toruses = []string{benchTorus.String()}
		keepPoints(sc, func(o scenario.Overrides) bool { return *o.CommMemGBps == 128 || *o.CommMemGBps == 450 })
		sc.Jobs[0].PayloadsMB = []float64{16}
	})
	// Units run BaselineCommOpt, ACE, Ideal per point: unit 1 is ACE @128.
	b.ReportMetric(res.Units[1].Metrics["eff_gbps_node"], "ACE-GB/s@128")
}

// BenchmarkFig6 regenerates the SM-count sensitivity sweep.
func BenchmarkFig6(b *testing.B) {
	res := benchBundled(b, "fig6.json", func(sc *scenario.Scenario) {
		sc.Platform.Toruses = []string{benchTorus.String()}
		keepPoints(sc, func(o scenario.Overrides) bool { return *o.CommSMs == 2 || *o.CommSMs == 6 })
		sc.Jobs[0].PayloadsMB = []float64{16}
	})
	b.ReportMetric(res.Units[1].Metrics["eff_gbps_node"], "GB/s@6SM")
}

// BenchmarkFig9a regenerates two points of the ACE design-space sweep.
func BenchmarkFig9a(b *testing.B) {
	res := benchBundled(b, "fig9a.json", func(sc *scenario.Scenario) {
		keepPoints(sc, func(o scenario.Overrides) bool {
			return *o.ACEFSMs == 16 && (*o.ACESRAMBytes == 1<<20 || *o.ACESRAMBytes == 4<<20)
		})
		ref := 1 // the 4 MiB point among the two kept
		sc.Relative[0].Overrides = &ref
		sc.Jobs[0].Workloads = []string{"resnet50"}
	})
	b.ReportMetric(res.Units[0].Metrics["norm_perf"], "perf@1MB")
}

// BenchmarkFig9b regenerates the ACE utilization measurement.
func BenchmarkFig9b(b *testing.B) {
	res := benchBundled(b, "fig9b.json", func(sc *scenario.Scenario) {
		sc.Platform.Toruses = []string{benchTorus.String()}
		sc.Jobs[0].Workloads = []string{"resnet50"}
	})
	b.ReportMetric(res.Units[0].Metrics["ace_util_bwd"], "bwd-util")
}

// BenchmarkFig10 regenerates one compute/network utilization timeline.
func BenchmarkFig10(b *testing.B) {
	res := benchBundled(b, "fig10.json", func(sc *scenario.Scenario) {
		sc.Platform.Toruses = []string{benchTorus.String()}
		sc.Platform.Presets = []string{"ACE"}
		sc.Jobs[0].Workloads = []string{"resnet50"}
	})
	b.ReportMetric(res.Units[0].Metrics["compute_util"], "compute-util")
}

// BenchmarkFig11 regenerates one size column of the scalability study
// (all five systems, ResNet-50 + DLRM).
func BenchmarkFig11(b *testing.B) {
	res := benchBundled(b, "fig11.json", func(sc *scenario.Scenario) {
		sc.Platform.Toruses = []string{benchTorus.String()}
		sc.Jobs[0].Workloads = []string{"resnet50", "dlrm"}
	})
	for _, ur := range res.Units {
		if u := ur.Unit; u.Preset == system.ACE && u.Workload == "ResNet-50" {
			b.ReportMetric(ur.Metrics["vs_best_baseline"], "ACE-speedup")
		}
	}
}

// BenchmarkFig12 regenerates the DLRM optimized-loop experiment.
func BenchmarkFig12(b *testing.B) {
	res := benchBundled(b, "fig12.json", func(sc *scenario.Scenario) {
		sc.Platform.Toruses = []string{benchTorus.String()}
	})
	// Units run job 0 (default loop) then job 1, CompOpt then ACE: the
	// last unit is the optimized ACE loop.
	b.ReportMetric(res.Units[3].Metrics["loop_speedup"], "ACE-opt-gain")
}

// BenchmarkTable4 regenerates the area/power model.
func BenchmarkTable4(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		area = hwmodel.Total(hwmodel.DefaultConfig()).AreaUM2
	}
	b.ReportMetric(area/1e6, "mm2x100")
}

// BenchmarkAnalytic regenerates the Section VI-A traffic analysis
// (closed form plus a measured collective).
func BenchmarkAnalytic(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		rows, _, err := exper.AnalyticVIA([]noc.Topology{noc.Torus3(4, 4, 4)}, 4<<20)
		if err != nil {
			b.Fatal(err)
		}
		reduction = rows[0].MemBWReduction
	}
	b.ReportMetric(reduction, "memBW-reduction")
}

// BenchmarkAblationForwarding regenerates the all-to-all forwarding
// ablation.
func BenchmarkAblationForwarding(b *testing.B) {
	res := benchBundled(b, "ablation_forwarding.json", nil)
	dur := map[system.Preset]float64{}
	for _, ur := range res.Units {
		dur[ur.Unit.Preset] = ur.Metrics["duration_us"]
	}
	b.ReportMetric(dur[system.BaselineCompOpt]/dur[system.ACE], "ACE-a2a-speedup")
}

// BenchmarkAblationSwitch regenerates the switch-fabric placement
// ablation.
func BenchmarkAblationSwitch(b *testing.B) {
	res := benchBundled(b, "ablation_switch.json", nil)
	// Units run the presets in Table VI order: unit 3 is ACE.
	b.ReportMetric(res.Units[3].Metrics["vs_compopt"], "ACE-vs-CompOpt")
}

// BenchmarkAblationScheduling regenerates the LIFO-vs-FIFO scheduling
// ablation.
func BenchmarkAblationScheduling(b *testing.B) {
	benchBundled(b, "ablation_scheduling.json", nil)
}

// BenchmarkCollectiveAllReduce measures raw simulator throughput on a
// single collective (events/sec scale indicator, not a paper figure).
func BenchmarkCollectiveAllReduce(b *testing.B) {
	spec := system.NewSpec(benchTorus, system.ACE)
	for i := 0; i < b.N; i++ {
		if _, err := exper.RunCollective(spec, collectives.AllReduce, 8<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainingIteration measures a full two-iteration ResNet-50
// training simulation on 16 NPUs.
func BenchmarkTrainingIteration(b *testing.B) {
	m := workload.ResNet50(workload.ResNet50Batch)
	for i := 0; i < b.N; i++ {
		spec := system.NewSpec(benchTorus, system.ACE)
		exper.FastGranularity(&spec)
		if _, _, err := exper.RunTraining(spec, m, training.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
