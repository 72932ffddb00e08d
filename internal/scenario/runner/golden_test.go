package runner_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
)

// -update re-records the scenario goldens. Only use it for an intentional,
// explained change of simulation results.
var update = flag.Bool("update", false, "rewrite scenario golden files")

// TestScenarioGoldens pins the full JSON results of bundled scenarios to
// byte-identical goldens. The fig4, table6-train and pipeline goldens
// were captured on the fixed 3D-torus engine BEFORE the generalized
// N-dimensional topology refactor; the fig5, fig6, ablation_* and fig9a
// goldens were recorded when those figures moved from hand-written
// runners to bundled files, after every value was checked equal, bit
// for bit, to the runners' rows. The engine must reproduce every metric
// of every unit: same floats, same ordering, same assertion outcomes.
// If a future change moves these numbers intentionally, it must say so
// and re-record them with -update.
func TestScenarioGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario grids in -short mode")
	}
	for _, name := range []string{"fig4", "table6_train", "pipeline", "fig5", "fig6", "ablation_forwarding",
		"ablation_switch", "ablation_scheduling", "fig9a"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, err := scenario.Load(filepath.Join("../../../examples/scenarios", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := runner.Run(sc, runner.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if fails := res.Failures(); len(fails) > 0 {
				t.Fatalf("assertion failures: %v", fails)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to record): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s results drifted from the pre-refactor golden.\ngot:\n%s\nwant:\n%s",
					name, buf.Bytes(), want)
			}
		})
	}
}

// TestMeshVsTorusScenario runs the bundled fabric-geometry scenario: the
// same 16-NPU platform as a 4x4 torus and a 4x4m ring-by-line mesh. Its
// assertions pin the expected exposed-communication ordering (the mesh
// closes each logical ring by routing the boundary hop across the whole
// line, so collectives take measurably longer and achieve less
// bandwidth). This is the non-3D acceptance gate of the generalized
// topology engine.
func TestMeshVsTorusScenario(t *testing.T) {
	sc, err := scenario.Load("../../../examples/scenarios/mesh_vs_torus.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(sc, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fails := res.Failures(); len(fails) > 0 {
		t.Fatalf("assertion failures: %v", fails)
	}
	for _, o := range res.Assertions {
		if o.Matched != 2 {
			t.Errorf("assertion %s matched %d units, want 2 (one per preset)", o.Assertion, o.Matched)
		}
	}
}

// TestFig11MatchesTable6Golden pins the 16-NPU slice of the bundled
// fig11.json: its 4x2x2 units are the table6_train grid, so each must
// report exactly that golden's metrics (plus its relative ones). A
// full-size fig11 golden would cost minutes of CPU per run.
func TestFig11MatchesTable6Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("15 training units in -short mode")
	}
	sc, err := scenario.Load("../../../examples/scenarios/fig11.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.Platform.Toruses = []string{"4x2x2"}
	res, err := runner.Run(sc, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	type unit struct {
		Torus, Preset, Workload string
		Metrics                 map[string]float64
	}
	var got, want struct{ Units []unit }
	b, err := os.ReadFile(filepath.Join("testdata", "golden", "table6_train.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(js.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Units) != 15 || len(want.Units) != 15 {
		t.Fatalf("fig11 4x2x2 ran %d units, golden has %d; want 15", len(got.Units), len(want.Units))
	}
	for i, w := range want.Units {
		g := got.Units[i]
		if g.Torus != w.Torus || g.Preset != w.Preset || g.Workload != w.Workload {
			t.Fatalf("unit %d is %s %s %s, golden %s %s %s", i, g.Torus, g.Preset, g.Workload, w.Torus, w.Preset, w.Workload)
		}
		for k, v := range w.Metrics {
			if g.Metrics[k] != v {
				t.Errorf("unit %d (%s %s) %s = %v, golden %v", i, g.Preset, g.Workload, k, g.Metrics[k], v)
			}
		}
		if len(g.Metrics) != len(w.Metrics)+len(sc.Relative) {
			t.Errorf("unit %d reports %d metrics, want the golden's %d plus %d relative", i, len(g.Metrics), len(w.Metrics), len(sc.Relative))
		}
	}
}

// TestFig9bFig10SliceGoldens pins the 16-NPU slices of the bundled
// fig9b.json and fig10.json, whose full size costs minutes: their JSON
// results byte for byte (recorded after every value was checked equal,
// bit for bit, to the hand-written runners they replaced), and each
// fig10 unit's training metrics against the table6_train golden, which
// runs the same units without utilization buckets. The assertions
// describe the 128-NPU figures, so the slices drop them.
func TestFig9bFig10SliceGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("15 training units in -short mode")
	}
	b, err := os.ReadFile(filepath.Join("testdata", "golden", "table6_train.json"))
	if err != nil {
		t.Fatal(err)
	}
	type unit struct {
		Preset, Workload string
		Metrics          map[string]float64
	}
	var table6 struct{ Units []unit }
	if err := json.Unmarshal(b, &table6); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig9b", "fig10"} {
		sc, err := scenario.Load(filepath.Join("../../../examples/scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		sc.Platform.Toruses = []string{"4x2x2"}
		sc.Assertions = nil
		res, err := runner.Run(sc, runner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "golden", name+"_4x2x2.json")
		if *update {
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update to record): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s 4x2x2 results drifted from the golden.\ngot:\n%s\nwant:\n%s", name, buf.Bytes(), want)
		}
		for _, ur := range res.Units {
			u := ur.Unit
			var ref *unit
			for i, w := range table6.Units {
				if w.Preset == u.Preset.String() && w.Workload == u.Workload {
					ref = &table6.Units[i]
				}
			}
			if ref == nil {
				t.Fatalf("%s unit %d (%s %s) has no table6_train unit", name, u.Index, u.Preset, u.Workload)
			}
			for k, v := range ref.Metrics {
				if ur.Metrics[k] != v {
					t.Errorf("%s unit %d (%s %s) %s = %v, table6_train %v", name, u.Index, u.Preset, u.Workload, k, ur.Metrics[k], v)
				}
			}
		}
	}
}
