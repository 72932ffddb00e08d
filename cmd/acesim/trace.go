package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"acesim/internal/collectives"
	"acesim/internal/graph"
	"acesim/internal/scenario"
	"acesim/internal/trace"
)

// runTrace implements `acesim trace`: run a scenario file (or a single
// execution graph, as the one-job scenario `graph run` builds) with the
// span collector on and export the full timeline as Chrome trace-event
// JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. The scenario tables — including the per-unit
// exposed-communication breakdown — go to stdout; -csv additionally
// writes that breakdown table as CSV.
//
//	acesim trace [-out trace.json] [-csv path] [-workers N] <scenario.json>
//	acesim trace [-out trace.json] [-csv path] [-size SHAPE] [-preset P] <graph.json>
//
// The output path defaults to the scenario's "trace" block "out" field
// when present, else <input>_trace.json next to the working directory.
func runTrace(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	out := fs.String("out", "", `Chrome trace-event JSON output path (default: scenario "trace" "out", else <input>_trace.json)`)
	csvPath := fs.String("csv", "", "also write the trace breakdown table as CSV to this path")
	workers := fs.Int("workers", 0, "parallel work units for scenario inputs (default GOMAXPROCS)")
	sizeStr := fs.String("size", "4x2x2", "fabric topology for graph inputs")
	preset := fs.String("preset", "ACE", "Table VI preset for graph inputs")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace: %w: want exactly one scenario or graph file, got %d", errUsage, fs.NArg())
	}
	path := fs.Arg(0)

	// A scenario and a graph are both JSON documents; try the scenario
	// schema first (it is strict), then fall back to the graph loader.
	sc, err := scenario.Load(path)
	if err == nil {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "size" || f.Name == "preset" {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fmt.Errorf("trace: %w: %s does not apply to a scenario input; edit the platform block of %s",
				errUsage, strings.Join(set, " "), path)
		}
	} else if _, gerr := graph.Load(path); gerr == nil {
		size, err := parseTorus(*sizeStr)
		if err != nil {
			return err
		}
		sc = graphScenario(path, size, *preset, collectives.EngineDES, false)
	} else {
		return err
	}
	failed, err := runScenarioFile(ctx, sc, runOpts{
		workers: *workers, format: "text", chrome: defaultTraceOut(*out, path, sc), traceCSV: *csvPath,
	})
	if err != nil {
		return err
	}
	return assertionFailures("trace", failed)
}

// defaultTraceOut resolves the export path: the explicit -out flag, the
// scenario's own "trace" block, or <input>_trace.json.
func defaultTraceOut(out, input string, sc *scenario.Scenario) string {
	if out != "" {
		return out
	}
	if sc.Trace != nil && sc.Trace.Out != "" {
		return sc.Trace.Out
	}
	base := strings.TrimSuffix(filepath.Base(input), ".json")
	return base + "_trace.json"
}

// writeChromeFile writes one Chrome trace-event document via write, then
// re-reads and schema-validates what landed on disk, so a malformed
// emission fails the command instead of failing later in Perfetto.
func writeChromeFile(path string, write func(w io.Writer) error) (trace.ChromeStats, error) {
	if err := writeFile(path, write); err != nil {
		return trace.ChromeStats{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return trace.ChromeStats{}, err
	}
	defer f.Close()
	st, err := trace.ValidateChrome(f)
	if err != nil {
		return st, fmt.Errorf("trace: emitted %s failed validation: %w", path, err)
	}
	return st, nil
}
