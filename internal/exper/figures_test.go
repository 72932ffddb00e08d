package exper_test

import (
	"strings"
	"testing"

	"acesim/examples/scenarios"
	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
	"acesim/internal/system"
)

// The paper-figure tests below drive the models the way
// `acesim fig4|fig5|fig6|fig12|ablation` do: through the bundled scenario file
// and the scenario runner, the one harness that produces these figures.

// runBundled runs the embedded bundled scenario after trim (nil keeps it
// whole) adjusts it, and fails the test on any error or assertion failure.
func runBundled(t *testing.T, name string, trim func(*scenario.Scenario)) *runner.Results {
	t.Helper()
	sc, err := scenarios.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	if trim != nil {
		trim(sc)
	}
	res, err := runner.Run(sc, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Failures(); len(f) > 0 {
		t.Fatalf("%s assertions failed: %v", name, f)
	}
	return res
}

// firstTorus trims the platform to its first torus and drops the
// assertions scoped to the others (the -short form of a sweep).
func firstTorus(sc *scenario.Scenario) {
	keep := sc.Platform.Toruses[0]
	sc.Platform.Toruses = sc.Platform.Toruses[:1]
	var kept []scenario.Assertion
	for _, a := range sc.Assertions {
		if a.Topology == "" || a.Topology == keep {
			kept = append(kept, a)
		}
	}
	sc.Assertions = kept
}

// keepOverrides trims the platform's override points to those keep
// accepts (the -short form of a sweep).
func keepOverrides(sc *scenario.Scenario, keep func(scenario.Overrides) bool) {
	var kept []scenario.Overrides
	for _, o := range sc.Platform.Overrides {
		if keep(o) {
			kept = append(kept, o)
		}
	}
	sc.Platform.Overrides = kept
}

// TestFig4Golden pins the bundled fig4.json rows to golden values captured
// from the pre-refactor (container/heap) engine, byte-identical floats
// included. The event queue, link pipeline and collective runtime have
// all been rewritten for speed since; this test is the contract that the
// rewrites changed *cost*, never *results*. If a future change moves
// these numbers intentionally, it must say so and re-record them.
func TestFig4Golden(t *testing.T) {
	type row struct {
		Kernel    string
		ARBytes   int64
		AloneUS   float64
		OverlapUS float64
		Slowdown  float64
	}
	// One row per (size, kernel), sizes outer: exact values recorded at
	// the seed (engine with container/heap, closure-per-hop).
	want := []row{
		{"GEMM 512", 10 << 20, 122.6619, 126.105674, 1.0280753355361363},
		{"GEMM 1000", 10 << 20, 122.6619, 175.958248, 1.4344979818509251},
		{"GEMM 2000", 10 << 20, 122.6619, 287.002474, 2.3397850025150433},
		{"EmbLookup 1000", 10 << 20, 122.6619, 122.666698, 1.000039115650418},
		{"EmbLookup 10000", 10 << 20, 122.6619, 434.23016, 3.5400573446196413},
		{"GEMM 512", 100 << 20, 1224.44494, 1225.643356, 1.0009787422536125},
		{"GEMM 1000", 100 << 20, 1224.44494, 1445.543608, 1.1805705269197322},
		{"GEMM 2000", 100 << 20, 1224.44494, 1556.6476, 1.27130877767358},
		{"EmbLookup 1000", 100 << 20, 1224.44494, 1224.492924, 1.0000391883688948},
		{"EmbLookup 10000", 100 << 20, 1224.44494, 1670.042478, 1.3639179871983464},
	}
	res := runBundled(t, "fig4.json", func(sc *scenario.Scenario) {
		if testing.Short() {
			sc.Jobs[0].PayloadsMB = sc.Jobs[0].PayloadsMB[:1]
			want = want[:len(sc.Jobs[0].Kernels)]
		}
	})
	if len(res.Units) != len(want) {
		t.Fatalf("fig4 ran %d units, want %d", len(res.Units), len(want))
	}
	for i, w := range want {
		u, m := res.Units[i].Unit, res.Units[i].Metrics
		g := row{u.Kernel.KernelName(), u.Bytes, m["alone_us"], m["overlap_us"], m["slowdown"]}
		if g != w {
			t.Errorf("row %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	res := runBundled(t, "fig4.json", func(sc *scenario.Scenario) {
		sc.Jobs[0].PayloadsMB = []float64{10}
	})
	slow := map[string]float64{}
	for _, ur := range res.Units {
		slow[ur.Unit.Kernel.KernelName()] = ur.Metrics["slowdown"]
	}
	for k, s := range slow {
		if s < 1 {
			t.Fatalf("%s: slowdown %.2f < 1", k, s)
		}
	}
	// Bigger kernels interfere more.
	if slow["GEMM 2000"] <= slow["GEMM 512"] {
		t.Fatalf("GEMM 2000 (%.2f) should slow the AR more than GEMM 512 (%.2f)",
			slow["GEMM 2000"], slow["GEMM 512"])
	}
	// The memory-hungry embedding lookup interferes most (paper: 1.42x
	// vs 1.16x for GEMM).
	if slow["EmbLookup 10000"] <= slow["GEMM 512"] {
		t.Fatalf("EmbLookup (%.2f) should beat small GEMM (%.2f)", slow["EmbLookup 10000"], slow["GEMM 512"])
	}
}

// sweepPoint is one platform point of a bundled sweep: the unit's
// topology and override point, with each preset's eff_gbps_node.
type sweepPoint struct {
	topo string
	over *scenario.Overrides
	eff  map[system.Preset]float64
}

// sweep groups a run's units into platform points, in expansion order.
func sweep(res *runner.Results) []sweepPoint {
	var pts []sweepPoint
	for _, ur := range res.Units {
		u := ur.Unit
		if n := len(pts); n == 0 || pts[n-1].topo != u.Topo.String() || pts[n-1].over != u.Overrides {
			pts = append(pts, sweepPoint{u.Topo.String(), u.Overrides, map[system.Preset]float64{}})
		}
		pts[len(pts)-1].eff[u.Preset] = ur.Metrics["eff_gbps_node"]
	}
	return pts
}

func TestFig5Shape(t *testing.T) {
	res := runBundled(t, "fig5.json", func(sc *scenario.Scenario) {
		if testing.Short() {
			firstTorus(sc)
			keepOverrides(sc, func(o scenario.Overrides) bool {
				bw := *o.CommMemGBps
				return bw == 64 || bw == 128 || bw == 450 || bw == 900
			})
		}
	})
	byTopo := map[string][]sweepPoint{}
	var topos []string
	for _, p := range sweep(res) {
		if byTopo[p.topo] == nil {
			topos = append(topos, p.topo)
		}
		byTopo[p.topo] = append(byTopo[p.topo], p)
	}
	if len(topos) == 0 {
		t.Fatal("fig5 ran no points")
	}
	for _, topo := range topos {
		pts := byTopo[topo]
		// Baseline effective BW grows with the memory allocation and
		// saturates near ideal at the full 900 GB/s.
		for i := 1; i < len(pts); i++ {
			if pts[i].eff[system.BaselineCommOpt] < pts[i-1].eff[system.BaselineCommOpt]-1e-9 {
				t.Fatalf("%s: baseline not monotone: %+v", topo, pts)
			}
		}
		last := pts[len(pts)-1]
		ideal := last.eff[system.Ideal]
		if b := last.eff[system.BaselineCommOpt]; b < 0.85*ideal {
			t.Fatalf("%s: baseline @%g = %.1f, ideal %.1f: should be near ideal", topo, *last.over.CommMemGBps, b, ideal)
		}
		// ACE approaches ideal with only 128 GB/s (the paper's 3.5x
		// memory-BW headline). At 16 NPUs the DMA-ingest bound is
		// 2 x 128 = 256 GB/s (injection ratio 2.0), i.e. ~81% of ideal.
		for _, p := range pts {
			if *p.over.CommMemGBps != 128 {
				continue
			}
			ace, base := p.eff[system.ACE], p.eff[system.BaselineCommOpt]
			if ace < 0.72*ideal {
				t.Fatalf("%s: ACE @128 = %.1f, ideal %.1f", topo, ace, ideal)
			}
			if ace <= base {
				t.Fatalf("%s: ACE (%.1f) must beat baseline (%.1f) at 128 GB/s", topo, ace, base)
			}
		}
	}
	// The override point labels the table rows.
	var txt strings.Builder
	if err := res.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "comm_mem_gbps=128 comm_sms=80") {
		t.Fatalf("fig5 table lacks the override-point column:\n%s", txt.String())
	}
}

func TestFig6Shape(t *testing.T) {
	res := runBundled(t, "fig6.json", func(sc *scenario.Scenario) {
		if testing.Short() {
			firstTorus(sc)
			keepOverrides(sc, func(o scenario.Overrides) bool {
				n := *o.CommSMs
				return n == 1 || n == 2 || n == 6 || n == 16
			})
		}
	})
	// More SMs for comm -> more network bandwidth, saturating by 6 SMs
	// (the paper's operating point).
	pts := sweep(res)
	bw := map[string]map[int]float64{}
	for i, p := range pts {
		if bw[p.topo] == nil {
			bw[p.topo] = map[int]float64{}
		}
		bw[p.topo][*p.over.CommSMs] = p.eff[system.BaselineCommOpt]
		if i > 0 && pts[i-1].topo == p.topo && p.eff[system.BaselineCommOpt] < pts[i-1].eff[system.BaselineCommOpt]-1e-9 {
			t.Fatalf("fig6 not monotone on %s: %+v", p.topo, pts)
		}
	}
	for topo, b := range bw {
		if b[6] < 0.85*b[16] {
			t.Fatalf("%s: 6 SMs (%.1f) should nearly saturate vs 16 SMs (%.1f)", topo, b[6], b[16])
		}
	}
}

func TestAblationForwarding(t *testing.T) {
	res := runBundled(t, "ablation_forwarding.json", nil)
	m := map[system.Preset]map[string]float64{}
	for _, ur := range res.Units {
		m[ur.Unit.Preset] = ur.Metrics
	}
	base, ace := m[system.BaselineCompOpt], m[system.ACE]
	// ACE's SRAM absorbs forwarded traffic: far fewer HBM reads and a
	// faster all-to-all than the equally-provisioned baseline.
	if ace["reads_node"] >= base["reads_node"] {
		t.Fatalf("ACE reads (%v) should be below baseline (%v)", ace["reads_node"], base["reads_node"])
	}
	if ace["duration_us"] >= base["duration_us"] {
		t.Fatalf("ACE a2a (%v us) should beat baseline (%v us)", ace["duration_us"], base["duration_us"])
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-NPU DLRM sweep in -short mode")
	}
	res := runBundled(t, "fig12.json", func(sc *scenario.Scenario) {
		sc.Platform.Toruses = []string{"4x4x4"}
	})
	// Units: job (default loop, then optimized) outer, preset inner.
	if len(res.Units) != 4 {
		t.Fatalf("units = %d", len(res.Units))
	}
	m := map[bool]map[system.Preset]map[string]float64{false: {}, true: {}}
	for _, ur := range res.Units {
		m[ur.Unit.DLRMOptimized][ur.Unit.Preset] = ur.Metrics
	}
	def, opt := m[false], m[true]
	// Both systems benefit (paper: CompOpt 1.05x — reproduced almost
	// exactly — and ACE 1.2x; our ACE gain is directional, ~1.03x, see
	// EXPERIMENTS.md), compute shrinks for both, and ACE stays the
	// fastest system in both modes.
	compGain := opt[system.BaselineCompOpt]["loop_speedup"]
	aceGain := opt[system.ACE]["loop_speedup"]
	if aceGain <= 1.0 || compGain <= 1.0 {
		t.Fatalf("optimization should help both (ACE %.3f, CompOpt %.3f)", aceGain, compGain)
	}
	for _, p := range []system.Preset{system.BaselineCompOpt, system.ACE} {
		if opt[p]["compute_us"] >= def[p]["compute_us"] {
			t.Fatalf("%s: optimization should shrink main-stream compute", p)
		}
		if def[p]["loop_speedup"] != 1 {
			t.Fatalf("%s: the default loop is its own reference, got loop_speedup %v", p, def[p]["loop_speedup"])
		}
	}
	if a, c := opt[system.ACE]["iter_time_us"], opt[system.BaselineCompOpt]["iter_time_us"]; a >= c {
		t.Fatalf("optimized ACE (%v) should beat optimized CompOpt (%v)", a, c)
	}
}
