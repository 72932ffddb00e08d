package runner

import (
	"bytes"
	"maps"
	"path/filepath"
	"strings"
	"testing"

	"acesim/internal/scenario"
	"acesim/internal/system"
)

// TestFig9bUtilization runs the bundled fig9b.json for ResNet-50 on 16
// NPUs. Data-parallel training has no forward communication except
// cross-iteration waits, while backprop keeps ACE busy. The paper's
// 96.4% is a 128-NPU number; at 16 NPUs the collectives drain quickly
// between layers, so only the ordering and a floor are asserted here
// (`acesim fig9b` reports the 4x8x4 values).
func TestFig9bUtilization(t *testing.T) {
	sc, err := scenario.Load(filepath.Join("..", "..", "..", "examples", "scenarios", "fig9b.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc.Platform.Toruses = []string{"4x2x2"}
	sc.Jobs[0].Workloads = []string{"resnet50"}
	sc.Assertions = nil
	res, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := res.Units[0].Metrics["ace_util_fwd"], res.Units[0].Metrics["ace_util_bwd"]
	if bwd < 0.15 {
		t.Fatalf("bwd utilization %.2f too low", bwd)
	}
	if fwd >= bwd {
		t.Fatalf("fwd utilization (%.2f) should be below bwd (%.2f)", fwd, bwd)
	}
}

// utilizationScenario mixes a collective job with a DLRM training job
// under a software baseline and ACE, with the utilization block on.
const utilizationScenario = `{
  "name": "util",
  "platform": {"toruses": ["4x2x2"], "presets": ["BaselineCompOpt", "ACE"], "fast_granularity": true},
  "jobs": [
    {"kind": "collective", "payloads_mb": [1]},
    {"kind": "training", "workloads": ["dlrm"]}
  ],
  "utilization": {"enabled": true},
  "assertions": [{"metric": "net_util", "op": ">", "value": 0}]
}`

// TestUtilizationBlock checks what the utilization block adds: the
// Fig 10 means and timeline on every training unit, the Fig 9b split on
// ACE units only, nothing on collective units, and no change to any
// other metric. Under the hybrid engine the buckets force full DES.
func TestUtilizationBlock(t *testing.T) {
	res, err := Run(parse(t, utilizationScenario), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Failures(); len(f) > 0 {
		t.Fatal(f)
	}
	plain := parse(t, utilizationScenario)
	plain.Utilization, plain.Assertions = nil, nil
	base, err := Run(plain, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := 1 // header
	for i, ur := range res.Units {
		u, m := ur.Unit, ur.Metrics
		training := u.Kind == scenario.KindTraining
		if (ur.Util != nil) != training {
			t.Fatalf("unit %d (%s): timeline present %v", i, describe(u), ur.Util != nil)
		}
		for name := range scenario.UtilizationMetrics {
			ace := name == "ace_util_fwd" || name == "ace_util_bwd"
			want := training && (!ace || u.Preset == system.ACE)
			if v, ok := m[name]; ok != want || ok && !(v > 0 && v <= 1) {
				t.Errorf("unit %d (%s): %s = %v (present %v), want present %v in (0, 1]", i, describe(u), name, v, ok, want)
			}
		}
		rest := maps.Clone(m)
		maps.DeleteFunc(rest, func(k string, _ float64) bool { return scenario.UtilizationMetrics[k] })
		if !maps.Equal(rest, base.Units[i].Metrics) {
			t.Errorf("unit %d (%s): metrics %v differ from the run without the block %v", i, describe(u), rest, base.Units[i].Metrics)
		}
		if training {
			rows += len(ur.Util.Net)
			if len(ur.Util.Net) != int(m["iter_time_us"])+1 || len(ur.Util.Compute) != len(ur.Util.Net) {
				t.Errorf("unit %d: %d/%d buckets for a %v us iteration", i, len(ur.Util.Net), len(ur.Util.Compute), m["iter_time_us"])
			}
		}
	}
	var csv bytes.Buffer
	if err := res.WriteUtilCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
	if len(lines) != rows || lines[0] != "unit,time_us,net_util,compute_util" || !strings.HasPrefix(lines[1], "u2,0,") {
		t.Fatalf("util CSV: %d lines (want %d), starting %q, %q", len(lines), rows, lines[0], lines[1])
	}
	var txt strings.Builder
	if err := res.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "exposed frac  net_util  compute_util  ace_util_fwd  ace_util_bwd\n") {
		t.Errorf("training table lacks the utilization columns:\n%s", txt.String())
	}
	if err := base.WriteUtilCSV(&csv); err == nil || !strings.Contains(err.Error(), `"utilization" block`) {
		t.Fatalf("WriteUtilCSV without the block = %v, want an error naming the block", err)
	}

	hyb := parse(t, utilizationScenario)
	hyb.Platform.Engine = "hybrid"
	hres, err := Run(hyb, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	warns := hres.HybridWarnings()
	if len(warns) != 2 || !strings.Contains(warns[0], "trace-buckets") || !strings.Contains(warns[1], "trace-buckets") {
		t.Errorf("hybrid warnings = %q, want one trace-buckets fallback per training unit", warns)
	}
	for i, ur := range hres.Units {
		if !maps.Equal(ur.Metrics, res.Units[i].Metrics) {
			t.Errorf("unit %d: hybrid metrics %v differ from DES %v", i, ur.Metrics, res.Units[i].Metrics)
		}
	}
}

// TestRelativeOverrides checks the override-point selector of a
// relative entry: the reference unit reads 1 and every other unit reads
// reference / value, the reference matching on every other axis.
func TestRelativeOverrides(t *testing.T) {
	sc := parse(t, `{
	  "name": "points",
	  "platform": {"toruses": ["4x2x2"], "presets": ["BaselineCommOpt", "ACE"],
	    "overrides": [{"comm_mem_gbps": 64}, {"comm_mem_gbps": 128}, {"comm_mem_gbps": 256}]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1, 2]}],
	  "relative": [{"name": "vs_128", "metric": "duration_us", "overrides": 1}]
	}`)
	res, err := Run(sc, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != 12 {
		t.Fatalf("%d units, want 12", len(res.Units))
	}
	for _, ur := range res.Units {
		u, v := ur.Unit, ur.Metrics["duration_us"]
		var ref float64
		for _, r := range res.Units {
			if r.Unit.OverridePoint == 1 && r.Unit.Preset == u.Preset && r.Unit.Bytes == u.Bytes {
				ref = r.Metrics["duration_us"]
			}
		}
		got, ok := ur.Metrics["vs_128"]
		if !ok || got != ref/v || u.OverridePoint == 1 && got != 1 {
			t.Errorf("unit %d (%s): vs_128 = %v (present %v), want %v", u.Index, describe(u), got, ok, ref/v)
		}
	}
}
