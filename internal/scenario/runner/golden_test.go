package runner_test

import (
	"bytes"
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
// N-dimensional topology refactor; the fig5, fig6 and
// ablation_forwarding goldens were recorded when those figures moved
// from hand-written runners to bundled files, after every value was
// checked equal, bit for bit, to the runners' rows. The engine must
// reproduce every metric of every unit: same floats, same ordering, same
// assertion outcomes. If a future change moves these numbers
// intentionally, it must say so and re-record them with -update.
func TestScenarioGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario grids in -short mode")
	}
	for _, name := range []string{"fig4", "table6_train", "pipeline", "fig5", "fig6", "ablation_forwarding"} {
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
