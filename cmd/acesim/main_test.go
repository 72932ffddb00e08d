package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acesim/internal/noc"
	"acesim/internal/trace"
)

// silence redirects stdout to /dev/null for the duration of fn so table
// output does not pollute the test log.
func silence(t *testing.T, fn func() error) error {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	return fn()
}

// capture returns what fn writes to *f (os.Stdout or os.Stderr).
func capture(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := *f
	*f = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() { *f = old }()
	fn()
	w.Close()
	return <-out
}

func writeScenario(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseTorus(t *testing.T) {
	cases := []struct {
		in   string
		want noc.Topology
		ok   bool
	}{
		{"4x2x2", noc.Torus3(4, 2, 2), true},
		{"4X8X4", noc.Torus3(4, 8, 4), true},
		{"8x1x1", noc.Torus3(8, 1, 1), true},
		// Generalized shapes: 1D/2D/4D grids and mesh dimensions.
		{"16", noc.Grid(16), true},
		{"4x2", noc.Grid(4, 2), true},
		{"2x2x2x2", noc.Grid(2, 2, 2, 2), true},
		{"8x8m", noc.Topology{Dims: []noc.DimSpec{{Size: 8, Wrap: true}, {Size: 8}}}, true},
		{"0x2x2", noc.Topology{}, false},
		{"axbxc", noc.Topology{}, false},
		{"", noc.Topology{}, false},
	}
	for _, tc := range cases {
		got, err := parseTorus(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseTorus(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !got.Equal(tc.want) {
			t.Errorf("parseTorus(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = success
	}{
		{"no args", nil, "missing experiment"},
		{"unknown experiment", []string{"fig99"}, `unknown experiment "fig99"`},
		{"bad size", []string{"table5", "-size", "4xZ"}, "-size does not apply to table5 (experiments take no flags)"},
		{"table4", []string{"table4"}, ""},
		{"table5", []string{"table5"}, ""},
		{"table6", []string{"table6"}, ""},
		{"scenario no sub", []string{"scenario"}, "missing scenario subcommand"},
		{"scenario bad sub", []string{"scenario", "explode", "x.json"}, "unknown scenario subcommand"},
		{"scenario no file", []string{"scenario", "validate"}, "missing scenario file"},
		// Bundled figures run their embedded scenario file at full size;
		// any flag names the file to edit instead.
		{"bundled figure", []string{"fig4"}, ""},
		{"bundled figure quick", []string{"fig5", "-quick"}, "-quick does not apply to a bundled figure; edit a copy of examples/scenarios/fig5.json"},
		{"bundled figure size", []string{"fig6", "-size", "4x2x2"}, "-size does not apply to a bundled figure; edit a copy of examples/scenarios/fig6.json"},
		{"fig11 quick", []string{"fig11", "-quick"}, "-quick does not apply to a bundled figure; edit a copy of examples/scenarios/fig11.json"},
		{"fig12 size", []string{"fig12", "-size", "4x4x4"}, "-size does not apply to a bundled figure; edit a copy of examples/scenarios/fig12.json"},
		{"ablation quick", []string{"ablation", "-quick"},
			"-quick does not apply to a bundled figure; edit a copy of examples/scenarios/ablation_forwarding.json, ablation_switch.json, ablation_scheduling.json"},
		{"interference quick", []string{"interference", "-quick"}, "-quick does not apply to a bundled figure; edit a copy of examples/scenarios/multijob.json"},
		{"fig9b size", []string{"fig9b", "-size", "1"}, "-size does not apply to a bundled figure; edit a copy of examples/scenarios/fig9b.json"},
		{"fig10 size", []string{"fig10", "-size", "1"}, "-size does not apply to a bundled figure; edit a copy of examples/scenarios/fig10.json"},
		// The other experiments take no flags either.
		{"table6 size", []string{"table6", "-size", "8x8x8"}, "-size does not apply to table6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := silence(t, func() error { return run(tc.args) })
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run(%v) = %v", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestScenarioValidateCommand(t *testing.T) {
	good := writeScenario(t, "good.json", `{
	  "name": "good",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Ideal"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}]
	}`)
	if err := silence(t, func() error { return run([]string{"scenario", "validate", good}) }); err != nil {
		t.Fatalf("validate good: %v", err)
	}
	if err := silence(t, func() error { return run([]string{"scenario", "list", good}) }); err != nil {
		t.Fatalf("list good: %v", err)
	}

	malformed := writeScenario(t, "malformed.json", `{"name": "x", jobs}`)
	if err := silence(t, func() error { return run([]string{"scenario", "validate", malformed}) }); err == nil {
		t.Fatal("validated malformed JSON")
	}
	invalid := writeScenario(t, "invalid.json", `{
	  "name": "bad",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Warp9"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}]
	}`)
	err := silence(t, func() error { return run([]string{"scenario", "validate", invalid}) })
	if err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatalf("validate invalid = %v, want unknown preset", err)
	}
	// An out-of-range override point fails validation, naming the point.
	for _, point := range []string{`{"link_efficiency": 1.5}`, `{"link_efficiency": 0}`} {
		bad := writeScenario(t, "bad_point.json", `{
		  "name": "bad-point",
		  "platform": {"toruses": ["4x2x2"], "overrides": [{"fifo_sched": true}, `+point+`]},
		  "jobs": [{"kind": "collective", "payloads_mb": [1]}]
		}`)
		err := silence(t, func() error { return run([]string{"scenario", "validate", bad}) })
		if err == nil || !strings.Contains(err.Error(), "platform.overrides[1] (link_efficiency=") ||
			!strings.Contains(err.Error(), "link efficiency must be in (0, 1]") {
			t.Fatalf("validate %s = %v, want a link efficiency error naming platform.overrides[1]", point, err)
		}
	}
	missing := filepath.Join(t.TempDir(), "nope.json")
	if err := silence(t, func() error { return run([]string{"scenario", "validate", missing}) }); err == nil {
		t.Fatal("validated missing file")
	}
}

func TestScenarioRunCommand(t *testing.T) {
	ok := writeScenario(t, "ok.json", `{
	  "name": "ok",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Ideal"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}],
	  "assertions": [{"metric": "duration_us", "op": ">", "value": 0}]
	}`)
	for _, format := range []string{"text", "json", "csv"} {
		if err := silence(t, func() error {
			return run([]string{"scenario", "run", "-workers", "2", "-format", format, ok})
		}); err != nil {
			t.Fatalf("run -format %s: %v", format, err)
		}
	}
	if err := silence(t, func() error {
		return run([]string{"scenario", "run", "-format", "yaml", ok})
	}); err == nil {
		t.Fatal("accepted unknown format")
	}

	failing := writeScenario(t, "failing.json", `{
	  "name": "failing",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Ideal"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}],
	  "assertions": [{"metric": "duration_us", "op": "<", "value": 0}]
	}`)
	err := silence(t, func() error { return run([]string{"scenario", "run", failing}) })
	if err == nil || !strings.Contains(err.Error(), "assertion failure") {
		t.Fatalf("run failing = %v, want assertion failure", err)
	}

	// -util-csv writes the utilization timelines of a scenario with the
	// block, and fails on one without it.
	util := writeScenario(t, "util.json", `{
	  "name": "util",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Ideal"], "fast_granularity": true},
	  "jobs": [{"kind": "training", "workloads": ["dlrm"], "iterations": 1}],
	  "utilization": {"enabled": true}
	}`)
	csv := filepath.Join(t.TempDir(), "util.csv")
	if err := silence(t, func() error { return run([]string{"scenario", "run", "-util-csv", csv, util}) }); err != nil {
		t.Fatalf("run -util-csv: %v", err)
	}
	if b, err := os.ReadFile(csv); err != nil || !strings.HasPrefix(string(b), "unit,time_us,net_util,compute_util\nu0,0,") {
		t.Fatalf("util CSV: %v, %.80q", err, b)
	}
	err = silence(t, func() error { return run([]string{"scenario", "run", "-util-csv", csv, ok}) })
	if err == nil || !strings.Contains(err.Error(), `"utilization" block`) {
		t.Fatalf("run -util-csv without the block = %v", err)
	}
	err = silence(t, func() error { return run([]string{"scenario", "run", "-util-csv", csv, util, ok}) })
	if !errors.Is(err, errUsage) {
		t.Fatalf("run -util-csv on two files = %v, want errUsage", err)
	}
}

func TestBundledScenariosValidate(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) < 3 {
		t.Fatalf("bundled scenarios missing: %v, %v", files, err)
	}
	args := append([]string{"scenario", "validate"}, files...)
	if err := silence(t, func() error { return run(args) }); err != nil {
		t.Fatal(err)
	}
}

// TestGraphCommands drives the graph subcommands end to end: convert a
// workload to JSON, validate the file, run it, and synthesize a pipeline.
func TestGraphCommands(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "rn50.json")
	if err := silence(t, func() error {
		return run([]string{"graph", "convert", "-workload", "resnet50", "-size", "4x2x2", "-iterations", "1", "-out", trace})
	}); err != nil {
		t.Fatalf("convert: %v", err)
	}
	if err := silence(t, func() error { return run([]string{"graph", "validate", trace}) }); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := silence(t, func() error { return run([]string{"graph", "run", "-preset", "Ideal", trace}) }); err != nil {
		t.Fatalf("run: %v", err)
	}
	// graph run replays the file as a one-job scenario: a DES run with
	// -power prints the graph row plus the trace and energy tables.
	// The values are the 1-iteration ResNet-50 figures on 4x2x2 ACE.
	var err error
	out := capture(t, &os.Stdout, func() { err = run([]string{"graph", "run", "-power", trace}) })
	if err != nil {
		t.Fatalf("run -power: %v", err)
	}
	for _, want := range []string{
		"rn50: graphs", "rn50.json  4597", // span us
		"overlap frac  link util", "0.995         0.0542", // trace breakdown
		"total J", "peak W", "24.8", "6169", // energy & power
	} {
		if !strings.Contains(out, want) {
			t.Errorf("graph run -power output lacks %q:\n%s", want, out)
		}
	}
	// The fast engines do not trace (tracing forces full DES).
	out = capture(t, &os.Stdout, func() { err = run([]string{"graph", "run", "-engine", "hybrid", trace}) })
	if err != nil {
		t.Fatalf("run -engine hybrid: %v", err)
	}
	if !strings.Contains(out, "rn50.json  4597") || strings.Contains(out, "trace (exposed-communication breakdown)") {
		t.Errorf("graph run -engine hybrid: want the graph row and no trace table:\n%s", out)
	}

	pipe := filepath.Join(dir, "pipe.json")
	if err := silence(t, func() error {
		return run([]string{"graph", "convert", "-workload", "resnet50", "-stages", "4", "-microbatches", "2",
			"-schedule", "1f1b", "-iterations", "1", "-out", pipe})
	}); err != nil {
		t.Fatalf("convert pipeline: %v", err)
	}
	if err := silence(t, func() error { return run([]string{"graph", "run", pipe}) }); err != nil {
		t.Fatalf("run pipeline: %v", err)
	}

	// Error paths: unknown subcommand, missing file, missing workload,
	// rank/torus mismatch.
	if err := silence(t, func() error { return run([]string{"graph"}) }); err == nil {
		t.Fatal("accepted missing subcommand")
	}
	if err := silence(t, func() error { return run([]string{"graph", "replay", trace}) }); err == nil {
		t.Fatal("accepted unknown subcommand")
	}
	if err := silence(t, func() error { return run([]string{"graph", "validate", filepath.Join(dir, "nope.json")}) }); err == nil {
		t.Fatal("validated missing file")
	}
	if err := silence(t, func() error { return run([]string{"graph", "convert"}) }); err == nil {
		t.Fatal("converted without a workload")
	}
	err = silence(t, func() error { return run([]string{"graph", "run", "-size", "4x4x2", trace}) })
	if err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("rank mismatch = %v, want ranks error", err)
	}
}

// TestFlagErrorsExitUsage pins the S-class CLI fix: Go's flag package
// stops parsing at the first positional argument, so flags stranded
// after the files used to be silently ignored (`scenario run x.json
// -format json` printed text). All subcommands now reject unknown and
// misplaced flags with errUsage, which main maps to exit code 2.
func TestFlagErrorsExitUsage(t *testing.T) {
	ok := writeScenario(t, "ok.json", `{
	  "name": "ok",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Ideal"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}]
	}`)
	cases := [][]string{
		{"scenario", "run", ok, "-format", "json"}, // trailing flag
		{"scenario", "run", "-bogus", ok},          // unknown flag
		{"scenario", "validate", ok, "-workers", "2"},
		{"graph", "run", "nope.json", "-preset", "Ideal"},
		{"graph", "convert", "-no-such-flag"},
		// Each graph subcommand accepts only the flags it reads.
		{"graph", "validate", "-preset", "Bogus", "-engine", "bogus", "f.json"},
		{"graph", "convert", "-workload", "resnet50", "-engine", "analytic", "-power", "-preset", "Ideal"},
		// -size/-preset shape a graph input only; a scenario names its
		// own platform.
		{"trace", "-size", "8x8x8", "-preset", "Bogus", "../../examples/scenarios/fig4.json"},
		{"trace", "-no-such-flag", ok},
		{"trace", ok, "-out", "x.json"},
		// An unknown command is a usage mistake too.
		{"bench", "-not-a-flag"},
		// So are a missing or unknown subcommand, a missing file, an
		// unknown -format and a missing -workload.
		{},
		{"scenario"},
		{"scenario", "bogus", "x.json"},
		{"scenario", "run"},
		{"scenario", "validate"},
		{"scenario", "run", "-format", "bogus", ok},
		{"graph"},
		{"graph", "bogus"},
		{"graph", "run"},
		{"graph", "validate"},
		{"graph", "convert"},
		// serve takes only -addr, -workers, -queue, -drain and -smoke.
		{"serve", "-stress"},
		{"serve", "-target", "http://x"},
		{"serve", "-stress-units", "5"},
		{"table5", "-bogus"},
		{"table5", "stray-positional"},
		{"fig4", "-quick"},
		{"fig5", "-size", "4x4x4", "-quick"},
		{"fig11", "-quick"},
		{"ablation", "-size", "4x2x2"},
		{"interference", "-quick"},
		{"interference", "-csv", "x"},
		// No experiment takes a flag.
		{"table4", "-quick", "-csv", "x"},
		{"table6", "-size", "8x8x8"},
		{"table5", "-quick"},
		{"table5", "-csv", "x"},
		{"fig9a", "-size", "4x2x2"},
		{"fig9a", "-csv", "x"},
		{"fig9b", "-csv", "x"},
		{"analytic", "-size", "4x2x2"},
		{"analytic", "-csv", "x"},
	}
	for _, args := range cases {
		err := silence(t, func() error { return run(args) })
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want errUsage", args, err)
		}
	}
	// Flags before the positionals must keep working.
	if err := silence(t, func() error { return run([]string{"scenario", "validate", ok}) }); err != nil {
		t.Errorf("valid invocation failed: %v", err)
	}
}

// TestTraceCommand drives `acesim trace` end to end on a scenario and on
// a graph file, checking the emitted Chrome trace-event JSON validates.
func TestTraceCommand(t *testing.T) {
	dir := t.TempDir()
	sc := writeScenario(t, "traced.json", `{
	  "name": "traced",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Ideal"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}],
	  "trace": {"enabled": true},
	  "assertions": [{"metric": "overlap_frac", "op": ">=", "value": 0}]
	}`)
	out := filepath.Join(dir, "sc_trace.json")
	csv := filepath.Join(dir, "sc_trace.csv")
	if err := silence(t, func() error { return run([]string{"trace", "-out", out, "-csv", csv, sc}) }); err != nil {
		t.Fatalf("trace scenario: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.ValidateChrome(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans == 0 {
		t.Fatal("scenario trace exported no spans")
	}
	if b, err := os.ReadFile(csv); err != nil || !strings.Contains(string(b), "overlap frac") {
		t.Fatalf("trace CSV missing breakdown column: %v, %q", err, b)
	}

	// Graph input: convert a workload, then trace the graph file.
	gpath := filepath.Join(dir, "rn50.json")
	if err := silence(t, func() error {
		return run([]string{"graph", "convert", "-workload", "resnet50", "-size", "4x2x2", "-iterations", "1", "-out", gpath})
	}); err != nil {
		t.Fatalf("convert: %v", err)
	}
	gout := filepath.Join(dir, "g_trace.json")
	gcsv := filepath.Join(dir, "g_trace.csv")
	if err := silence(t, func() error {
		return run([]string{"trace", "-size", "4x2x2", "-preset", "Ideal", "-out", gout, "-csv", gcsv, gpath})
	}); err != nil {
		t.Fatalf("trace graph: %v", err)
	}
	f, err = os.Open(gout)
	if err != nil {
		t.Fatal(err)
	}
	st, err = trace.ValidateChrome(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans == 0 {
		t.Fatal("graph trace exported no spans")
	}
	// A graph runs as a one-job scenario: -csv writes its per-unit
	// breakdown row, labeled by the file name.
	if b, err := os.ReadFile(gcsv); err != nil || !strings.Contains(string(b), "u0 4x2x2 Ideal graph rn50.json,graph,") {
		t.Fatalf("graph trace CSV missing the unit row: %v, %q", err, b)
	}

	// Error paths: no input, two inputs, unreadable input.
	if err := silence(t, func() error { return run([]string{"trace"}) }); !errors.Is(err, errUsage) {
		t.Errorf("trace without file = %v, want errUsage", err)
	}
	if err := silence(t, func() error { return run([]string{"trace", sc, gpath}) }); !errors.Is(err, errUsage) {
		t.Errorf("trace with two files = %v, want errUsage", err)
	}
	if err := silence(t, func() error { return run([]string{"trace", filepath.Join(dir, "nope.json")}) }); err == nil {
		t.Error("traced a missing file")
	}
}
