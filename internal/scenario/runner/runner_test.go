package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"acesim/internal/exper"
	"acesim/internal/noc"
	"acesim/internal/scenario"
	"acesim/internal/system"
)

// gridScenario expands to 8 cheap collective units (2 toruses x 2
// presets x 2 payloads) — the worker-pool determinism fixture.
const gridScenario = `{
  "name": "grid",
  "platform": {"toruses": ["4x2x2", "4x4x2"], "presets": ["Ideal", "ACE"]},
  "jobs": [{"kind": "collective", "payloads_mb": [1, 2]}],
  "assertions": [{"metric": "eff_gbps_node", "op": ">", "value": 0}]
}`

func parse(t *testing.T, src string) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFig4Equivalence checks the scenario path of the Section III
// microbenchmark against the measurement it wraps: every unit of the
// bundled examples/scenarios/fig4.json — run traced, on the worker pool,
// with one alone baseline shared per payload — must equal direct
// untraced exper.Fig4MeasureStats measurements of its (kernel, payload)
// point, bit for bit.
func TestFig4Equivalence(t *testing.T) {
	sc, err := scenario.Load(filepath.Join("..", "..", "..", "examples", "scenarios", "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		sc.Jobs[0].PayloadsMB = sc.Jobs[0].PayloadsMB[:1]
	}
	res, err := Run(sc, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sc.Jobs[0].PayloadsMB) * len(sc.Jobs[0].Kernels); len(res.Units) != want {
		t.Fatalf("scenario ran %d units, want %d", len(res.Units), want)
	}
	for i, ur := range res.Units {
		u, m := ur.Unit, ur.Metrics
		k := exper.EmbLookupKernel(u.Kernel.EmbBatch)
		if u.Kernel.GEMMN > 0 {
			k = exper.GEMMKernel(u.Kernel.GEMMN)
		}
		alone, _, err := exper.Fig4MeasureStats(nil, u.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		over, _, err := exper.Fig4MeasureStats(&k, u.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if m["alone_us"] != alone.Micros() || m["overlap_us"] != over.Micros() ||
			m["slowdown"] != float64(over)/float64(alone) {
			t.Fatalf("unit %d (%s): metrics %v, direct measurement alone %v overlapped %v",
				i, describe(u), m, alone, over)
		}
	}
	if f := res.Failures(); len(f) != 0 {
		t.Fatalf("bundled fig4 assertions failed: %v", f)
	}
}

// TestWorkerPoolDeterminism runs a >= 8 unit grid under several worker
// counts and requires bit-identical results in expansion order.
func TestWorkerPoolDeterminism(t *testing.T) {
	ref, err := Run(parse(t, gridScenario), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Units) != 8 {
		t.Fatalf("grid expands to %d units, want 8", len(ref.Units))
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := Run(parse(t, gridScenario), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Units, got.Units) {
			t.Fatalf("results differ between -workers 1 and -workers %d", workers)
		}
		if !reflect.DeepEqual(ref.Assertions, got.Assertions) {
			t.Fatalf("assertion outcomes differ at -workers %d", workers)
		}
	}
}

func TestAssertionOutcomes(t *testing.T) {
	res, err := Run(parse(t, `{
	  "name": "asserts",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Ideal"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}],
	  "assertions": [
	    {"metric": "eff_gbps_node", "op": ">", "value": 0},
	    {"metric": "eff_gbps_node", "op": ">", "value": 1e9}
	  ]
	}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Validation rejects a filter outside the grid, so evaluate that one
	// directly against the results.
	res.Assertions = append(res.Assertions, Evaluate([]scenario.Assertion{
		{Metric: "eff_gbps_node", Op: ">", Value: 0, Preset: "ACE"},
	}, res.Units)...)
	if len(res.Assertions) != 3 {
		t.Fatalf("outcomes = %d", len(res.Assertions))
	}
	if !res.Assertions[0].OK() || res.Assertions[0].Matched != 1 {
		t.Fatalf("passing assertion reported %+v", res.Assertions[0])
	}
	if res.Assertions[1].OK() {
		t.Fatal("impossible bound passed")
	}
	// The preset filter matches no unit: that is a failure, not a pass.
	if res.Assertions[2].OK() || res.Assertions[2].Matched != 0 {
		t.Fatalf("unmatched assertion reported %+v", res.Assertions[2])
	}
	if f := res.Failures(); len(f) != 2 {
		t.Fatalf("failures = %v", f)
	}
}

func TestOverridesApply(t *testing.T) {
	// Starving the baseline's comm memory bandwidth must slow the
	// collective down relative to the preset default.
	run := func(src string) float64 {
		t.Helper()
		res, err := Run(parse(t, src), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Units[0].Metrics["eff_gbps_node"]
	}
	def := run(`{
	  "name": "default",
	  "platform": {"toruses": ["4x2x2"], "presets": ["BaselineCommOpt"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [4]}]
	}`)
	starved := run(`{
	  "name": "starved",
	  "platform": {"toruses": ["4x2x2"], "presets": ["BaselineCommOpt"],
	               "overrides": [{"comm_mem_gbps": 32}]},
	  "jobs": [{"kind": "collective", "payloads_mb": [4]}]
	}`)
	if starved >= def {
		t.Fatalf("comm_mem_gbps override had no effect: default %.1f, starved %.1f", def, starved)
	}

	// DLRM's overlapping collectives on the baseline expose more
	// communication when served in issue order than with the default
	// LIFO priority (Section V).
	res, err := Run(parse(t, `{
	  "name": "sched",
	  "platform": {"toruses": ["4x2x2"], "presets": ["BaselineCommOpt"], "fast_granularity": true,
	               "overrides": [{"fifo_sched": false}, {"fifo_sched": true}]},
	  "jobs": [{"kind": "training", "workloads": ["DLRM"]}]
	}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lifo, fifo := res.Units[0].Metrics["exposed_us"], res.Units[1].Metrics["exposed_us"]
	if fifo <= lifo {
		t.Fatalf("fifo_sched override had no effect: LIFO exposed %.1f us, FIFO %.1f us", lifo, fifo)
	}
}

func TestTrainingUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("training run in -short mode")
	}
	// The job spells the workload with a different alias than the
	// assertion filter; both must canonicalize to the same unit.
	res, err := Run(parse(t, `{
	  "name": "train",
	  "platform": {"toruses": ["4x2x2"], "presets": ["ACE"], "fast_granularity": true},
	  "jobs": [{"kind": "training", "workloads": ["ResNet-50"]}],
	  "assertions": [{"metric": "iter_time_us", "op": ">", "value": 0, "workload": "resnet50"}]
	}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Units[0].Metrics
	if m["iter_time_us"] <= 0 || m["compute_us"] <= 0 {
		t.Fatalf("degenerate training metrics: %v", m)
	}
	if m["exposed_comm_frac"] < 0 || m["exposed_comm_frac"] > 1 {
		t.Fatalf("exposed_comm_frac out of range: %v", m)
	}
	if o := res.Assertions[0]; !o.OK() || o.Matched != 1 {
		t.Fatalf("workload alias filter did not match canonical unit: %+v", o)
	}
}

func TestOutputFormats(t *testing.T) {
	res, err := Run(parse(t, `{
	  "name": "fmt",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Ideal"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}],
	  "assertions": [{"metric": "duration_us", "op": ">", "value": 0}]
	}`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := res.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fmt: collectives", "fmt: assertions", "4x2x2", "Ideal"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, txt.String())
		}
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name  string `json:"name"`
		Units []struct {
			Kind    string             `json:"kind"`
			Torus   string             `json:"torus"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"units"`
	}
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output does not round-trip: %v", err)
	}
	if decoded.Name != "fmt" || len(decoded.Units) != 1 || decoded.Units[0].Torus != "4x2x2" {
		t.Fatalf("decoded = %+v", decoded)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "torus,preset,collective,MB") {
		t.Fatalf("csv header wrong:\n%s", csv.String())
	}

	// The optimized DLRM loop is marked in every output; the default
	// loop prints as before.
	m := map[string]float64{"iter_time_us": 2, "compute_us": 1, "exposed_us": 1, "exposed_comm_frac": 0.5}
	train := scenario.Unit{Kind: scenario.KindTraining, Topo: noc.Torus3(4, 2, 2), Preset: system.ACE, Workload: "DLRM"}
	opt := train
	opt.Index, opt.DLRMOptimized = 1, true
	dl := &Results{Name: "dlrm", Units: []UnitResult{{Unit: train, Metrics: m}, {Unit: opt, Metrics: m}}}
	txt.Reset()
	js.Reset()
	csv.Reset()
	if err := dl.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if err := dl.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := dl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"text": txt.String(), "csv": csv.String()} {
		if strings.Count(out, "DLRM (optimized)") != 1 || strings.Count(out, "DLRM") != 2 {
			t.Errorf("%s output should mark only the optimized loop:\n%s", name, out)
		}
	}
	if strings.Count(js.String(), `"dlrm_optimized": true`) != 1 || strings.Contains(js.String(), `"dlrm_optimized": false`) {
		t.Errorf("JSON output should mark only the optimized loop:\n%s", js.String())
	}
	if got := describe(opt); got != "4x2x2 ACE DLRM (optimized)" {
		t.Errorf("describe = %q", got)
	}
}

// TestGraphUnits runs a graph job end to end: a pipeline synthesis and a
// graph file referenced relative to the scenario file's directory.
func TestGraphUnits(t *testing.T) {
	dir := t.TempDir()
	graphJSON := `{
	  "name": "two-rank",
	  "ranks": 16,
	  "ops": [
	    {"id": 0, "kind": "compute", "rank": 0, "name": "k", "macs": 1e9, "bytes": 1048576},
	    {"id": 1, "kind": "send", "rank": 0, "dst": 3, "bytes": 65536, "deps": [0]},
	    {"id": 2, "kind": "mark", "rank": 3, "name": "end", "deps": [1], "final": true}
	  ]
	}`
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), []byte(graphJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	scJSON := `{
	  "name": "graph-units",
	  "platform": {"toruses": ["4x2x2"], "presets": ["ACE"]},
	  "jobs": [
	    {"kind": "graph", "graph": "trace.json"},
	    {"kind": "graph", "pipeline": {"workload": "resnet50", "stages": 4, "microbatches": 2, "schedule": "1f1b", "iterations": 1}}
	  ],
	  "assertions": [
	    {"metric": "graph_span_us", "op": ">", "value": 0},
	    {"metric": "graph_exposed_us", "op": ">=", "value": 0}
	  ]
	}`
	path := filepath.Join(dir, "sc.json")
	if err := os.WriteFile(path, []byte(scJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fails := res.Failures(); len(fails) > 0 {
		t.Fatalf("assertions failed: %v", fails)
	}
	if len(res.Units) != 2 {
		t.Fatalf("%d units, want 2", len(res.Units))
	}
	if res.Units[0].Metrics["graph_span_us"] <= 0 {
		t.Fatalf("file graph span = %g", res.Units[0].Metrics["graph_span_us"])
	}
	// The trace's rank count must match the torus; a mismatching platform
	// errors rather than mis-running.
	bad := *sc
	bad.Platform = &scenario.Platform{Toruses: []string{"4x4x2"}}
	if _, err := Run(&bad, Options{}); err == nil {
		t.Fatal("ran a 16-rank trace on a 32-node torus")
	}
}

// relativeScenario is a cheap 4x2x2 collective grid with one relative
// entry per selector form. Job 1's 4 MB point has no job-0 twin, so it
// has no vs_allreduce reference.
const relativeScenario = `{
  "name": "relative",
  "platform": {"toruses": ["4x2x2"], "presets": ["BaselineCommOpt", "ACE", "Ideal"]},
  "jobs": [
    {"kind": "collective", "payloads_mb": [1, 2]},
    {"kind": "collective", "collective": "alltoall", "payloads_mb": [1, 4]}
  ],
  "relative": [
    {"name": "vs_commopt", "metric": "duration_us", "presets": ["BaselineCommOpt"]},
    {"name": "vs_best", "metric": "duration_us", "presets": ["BaselineCommOpt", "ACE"]},
    {"name": "vs_allreduce", "metric": "duration_us", "job": 0}
  ],
  "assertions": [
    {"metric": "vs_commopt", "op": "==", "value": 1, "preset": "BaselineCommOpt"},
    {"metric": "vs_allreduce", "op": "==", "value": 1, "job": 0}
  ]
}`

func TestRelativeMetrics(t *testing.T) {
	res, err := Run(parse(t, relativeScenario), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Failures(); len(f) > 0 {
		t.Fatalf("relative assertions failed: %v", f)
	}
	dur := func(job int, p system.Preset, bytes int64) (float64, bool) {
		for _, ur := range res.Units {
			if u := ur.Unit; u.Job == job && u.Preset == p && u.Bytes == bytes {
				return ur.Metrics["duration_us"], true
			}
		}
		return 0, false
	}
	for _, ur := range res.Units {
		u, m := ur.Unit, ur.Metrics
		v := m["duration_us"]
		comm, _ := dur(u.Job, system.BaselineCommOpt, u.Bytes)
		ace, _ := dur(u.Job, system.ACE, u.Bytes)
		if got := m["vs_commopt"]; got != comm/v {
			t.Errorf("unit %d: vs_commopt = %v, want %v", u.Index, got, comm/v)
		}
		if u.Preset == system.BaselineCommOpt && m["vs_commopt"] != 1 {
			t.Errorf("unit %d: reference unit has vs_commopt %v, want 1", u.Index, m["vs_commopt"])
		}
		if got, want := m["vs_best"], min(comm/v, ace/v); got != want {
			t.Errorf("unit %d: vs_best = %v, want the smallest ratio %v", u.Index, got, want)
		}
		ar, ok := dur(0, u.Preset, u.Bytes)
		if got, has := m["vs_allreduce"]; has != ok || ok && got != ar/v {
			t.Errorf("unit %d: vs_allreduce = %v (present %v), want %v (present %v)", u.Index, got, has, ar/v, ok)
		}
	}
	var txt strings.Builder
	if err := res.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "vs_commopt  vs_best  vs_allreduce") || !strings.Contains(txt.String(), "  -\n") {
		t.Fatalf("table lacks the relative columns or the empty cell of a unit without a reference:\n%s", txt.String())
	}
	// Relative values are computed after the pool drains, so the worker
	// count cannot change them.
	var one, four bytes.Buffer
	if err := res.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	res4, err := Run(parse(t, relativeScenario), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res4.WriteJSON(&four); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), four.Bytes()) {
		t.Fatalf("JSON differs between -workers 1 and 4:\n%s\nvs\n%s", one.Bytes(), four.Bytes())
	}
}
