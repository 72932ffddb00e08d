package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const poweredScenario = `{
  "name": "tiny-power",
  "platform": {"toruses": ["4"], "presets": ["ACE"], "engine": "hybrid"},
  "power": {"enabled": true, "coefficients": {"static_link_w": 2}},
  "jobs": [{"kind": "collective", "payloads_mb": [1]}],
  "assertions": [
    {"metric": "energy_total_j", "op": ">", "value": 0},
    {"metric": "peak_power_w", "op": ">", "value": 0},
    {"metric": "perf_per_watt", "op": ">", "value": 0}
  ]
}`

// TestScenarioPowerCLI drives the power surfaces of the scenario
// subcommands end to end: validate and list name the engine and the
// enabled power accounting, run passes the energy assertions, and
// -power-csv lands the windowed timeline on disk.
func TestScenarioPowerCLI(t *testing.T) {
	path := writeScenario(t, "tiny_power.json", poweredScenario)
	for _, sub := range []string{"validate", "list"} {
		if err := silence(t, func() error { return run([]string{"scenario", sub, path}) }); err != nil {
			t.Fatalf("scenario %s: %v", sub, err)
		}
	}
	csv := filepath.Join(t.TempDir(), "power.csv")
	if err := silence(t, func() error {
		return run([]string{"scenario", "run", "-power-csv", csv, path})
	}); err != nil {
		t.Fatalf("scenario run -power-csv: %v", err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatalf("power CSV not written: %v", err)
	}
	if !strings.HasPrefix(string(data), "unit,time_us,compute_w,hbm_w,fabric_w,static_w,total_w\n") {
		t.Fatalf("power CSV header missing:\n%s", data)
	}
	if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
		t.Fatal("power CSV carries no timeline rows")
	}

	// -power-csv merges timelines per scenario file, so it refuses a
	// multi-file invocation rather than overwriting the path per file.
	other := writeScenario(t, "other.json", poweredScenario)
	err = silence(t, func() error {
		return run([]string{"scenario", "run", "-power-csv", csv, path, other})
	})
	if err == nil || !strings.Contains(err.Error(), "single scenario file") {
		t.Fatalf("multi-file -power-csv = %v, want single-file usage error", err)
	}
}

// TestScenarioRunWarnsHybridFallback: a scenario that asks for the
// hybrid engine but also traces falls back to full DES (the span
// timeline needs every event); `scenario run` names the fallback on
// stderr instead of dropping the fast engine silently.
func TestScenarioRunWarnsHybridFallback(t *testing.T) {
	path := writeScenario(t, "hybrid_traced.json", `{
	  "name": "hybrid-traced",
	  "platform": {"toruses": ["4"], "presets": ["ACE"], "engine": "hybrid"},
	  "trace": {"enabled": true},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}]
	}`)
	var err error
	stderr := capture(t, &os.Stderr, func() {
		err = silence(t, func() error { return run([]string{"scenario", "run", path}) })
	})
	if err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	want := "acesim: warning: unit 0 (4 ACE all-reduce 1MB): hybrid engine fell back to full DES: tracing\n"
	if stderr != want {
		t.Fatalf("stderr = %q, want %q", stderr, want)
	}
}
