// Command acesim regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index), runs declarative
// scenario files (see README.md for the schema), and executes and
// converts workload execution graphs (see DESIGN.md, "Execution-graph
// IR").
//
// Usage:
//
//	acesim <experiment> [flags]
//	acesim scenario run|validate|list [flags] <file>...
//	acesim graph run|convert|validate [flags] <file>...
//	acesim trace [-out trace.json] [flags] <scenario.json|graph.json>
//
// Experiments: fig4 fig5 fig6 fig9a fig9b fig10 fig11 fig12 table4 table5
// table6 analytic ablation interference all
//
// fig4, fig5, fig6, fig9a, fig9b, fig10, fig11 and fig12 run the
// bundled scenario file of the same name (embedded in the binary) and
// print it the way `scenario run` does; ablation runs
// ablation_forwarding.json, ablation_switch.json and
// ablation_scheduling.json, and interference runs multijob.json with
// tracing on. Experiments take no flags: to change a bundled figure,
// edit a copy of its file and run that with `acesim scenario run`.
//
// Scenario flags:
//
//	-workers N       parallel work units (default GOMAXPROCS)
//	-format f        run output format: text, json or csv (default text)
//	-power-csv path  windowed power timeline (enabled "power" block)
//	-util-csv path   1 us utilization timelines (enabled "utilization" block)
//
// Bundled scenarios live under examples/scenarios/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"acesim/examples/scenarios"
	"acesim/internal/collectives"
	"acesim/internal/exper"
	"acesim/internal/hwmodel"
	"acesim/internal/noc"
	"acesim/internal/report"
	"acesim/internal/scenario"
	scrunner "acesim/internal/scenario/runner"
	"acesim/internal/system"
	"acesim/internal/trace"
)

// errUsage marks a command-line mistake. main prints the error plus the
// usage banner and exits 2, distinguishing bad invocations from
// simulation failures (exit 1).
var errUsage = errors.New("bad usage")

// errInterrupted marks a run cut short by SIGINT/SIGTERM after its
// completed partial results were flushed; main exits 130 (128 + SIGINT)
// so scripts can tell an interrupted sweep from a failed one.
var errInterrupted = errors.New("interrupted")

func main() {
	// One signal cancels the context: sweeps stop dispatching, in-flight
	// units drain, and partial results are flushed. A second signal hits
	// the default disposition and kills the process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := runCtx(ctx, os.Args[1:])
	stop()
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "acesim:", err)
	if errors.Is(err, errUsage) {
		usage()
		os.Exit(2)
	}
	if errors.Is(err, errInterrupted) {
		os.Exit(130)
	}
	os.Exit(1)
}

// parseFlags parses args and rejects flag-like arguments stranded after
// the positionals. Go's flag package stops at the first non-flag
// argument, so `acesim scenario run file.json -format json` used to
// silently ignore -format and print the default format; every
// subcommand routes through this helper so such mistakes exit 2 with
// usage on stderr instead. The FlagSet must use flag.ContinueOnError.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard) // main prints the error once, with usage
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%s: %w: %v", fs.Name(), errUsage, err)
	}
	for _, a := range fs.Args() {
		if len(a) > 1 && a[0] == '-' {
			return fmt.Errorf("%s: %w: flag %q after positional arguments (flags must come first)", fs.Name(), errUsage, a)
		}
	}
	return nil
}

// run executes one CLI invocation without cancellation (tests call it
// directly; main routes through runCtx with the signal context).
func run(args []string) error { return runCtx(context.Background(), args) }

func runCtx(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing experiment")
	}
	cmd := args[0]
	if cmd == "scenario" {
		return runScenario(ctx, args[1:])
	}
	if cmd == "graph" {
		return runGraphCmd(ctx, args[1:])
	}
	if cmd == "trace" {
		return runTrace(ctx, args[1:])
	}
	if cmd == "serve" {
		return runServe(ctx, args[1:])
	}
	all := map[string]func() error{
		"table4": table4, "table5": table5, "table6": table6, "analytic": analytic,
	}
	for name := range bundledFigures {
		all[name] = func() error { return runBundled(ctx, name) }
	}
	all["all"] = func() error {
		for _, name := range []string{
			"table5", "table6", "table4", "analytic", "fig4", "fig5", "fig6",
			"fig9a", "fig9b", "fig10", "fig11", "fig12", "ablation",
			"interference",
		} {
			if err := all[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := all[cmd]
	if !ok {
		return fmt.Errorf("%w: unknown experiment %q", errUsage, cmd)
	}
	// Experiments take no flags or arguments; a bundled figure names the
	// files to edit instead.
	if len(args) > 1 {
		if fig, ok := bundledFigures[cmd]; ok {
			return fmt.Errorf("%s: %w: %s does not apply to a bundled figure; edit a copy of examples/scenarios/%s and run it with `acesim scenario run`",
				cmd, errUsage, args[1], strings.Join(fig.files, ", "))
		}
		return fmt.Errorf("%s: %w: %s does not apply to %s (experiments take no flags)", cmd, errUsage, args[1], cmd)
	}
	return fn()
}

// bundledFigure is an experiment that runs bundled scenario files, in
// order. A traced figure also prints the exposed-communication table.
type bundledFigure struct {
	files []string
	trace bool
}

// bundledFigures maps the experiments that run bundled scenario files to
// those files. They always run at the files' full size.
var bundledFigures = map[string]bundledFigure{
	"fig4":         {files: []string{"fig4.json"}},
	"fig5":         {files: []string{"fig5.json"}},
	"fig6":         {files: []string{"fig6.json"}},
	"fig9a":        {files: []string{"fig9a.json"}},
	"fig9b":        {files: []string{"fig9b.json"}},
	"fig10":        {files: []string{"fig10.json"}},
	"fig11":        {files: []string{"fig11.json"}},
	"fig12":        {files: []string{"fig12.json"}},
	"ablation":     {files: []string{"ablation_forwarding.json", "ablation_switch.json", "ablation_scheduling.json"}},
	"interference": {files: []string{"multijob.json"}, trace: true},
}

// runBundled runs an experiment's embedded bundled scenario files and
// prints each the way `acesim scenario run` does.
func runBundled(ctx context.Context, cmd string) error {
	fig := bundledFigures[cmd]
	var failed []string
	for _, file := range fig.files {
		sc, err := scenarios.Load(file)
		if err != nil {
			return err
		}
		fails, err := runScenarioFile(ctx, sc, runOpts{format: "text", trace: fig.trace})
		if err != nil {
			return err
		}
		failed = append(failed, fails...)
	}
	return assertionFailures(cmd, failed)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: acesim <experiment>
       acesim scenario run|validate|list [-workers N] [-format text|json|csv] [-power-csv path] [-util-csv path] <file>...
       acesim graph run [-size SHAPE] [-preset P] [-engine des|hybrid|analytic] [-power] <graph.json>...
       acesim graph convert -workload W [-size SHAPE] [-iterations N] [pipeline/loop flags] [-out path]
       acesim graph validate <graph.json>...
       acesim trace [-out trace.json] [-csv path] [-workers N] <scenario.json>
       acesim trace [-out trace.json] [-csv path] [-size SHAPE] [-preset P] <graph.json>
       acesim serve [-addr :8080] [-workers N] [-queue UNITS] [-smoke scenario.json] [-stress [stress flags]]
experiments: fig4 fig5 fig6 fig9a fig9b fig10 fig11 fig12
             table4 table5 table6 analytic ablation interference all
Experiments take no flags; every figure and the ablation and
interference studies run files under examples/scenarios/.`)
}

func parseTorus(s string) (noc.Topology, error) {
	t, err := scenario.ParseTopology(s)
	if err != nil {
		return t, fmt.Errorf("bad -size: %w", err)
	}
	return t, nil
}

// runScenario dispatches the scenario subcommands.
func runScenario(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing scenario subcommand (run, validate or list)")
	}
	sub := args[0]
	fs := flag.NewFlagSet("scenario "+sub, flag.ContinueOnError)
	workers := fs.Int("workers", 0, "parallel work units (default GOMAXPROCS)")
	format := fs.String("format", "text", "run output format: text, json or csv")
	powerCSV := fs.String("power-csv", "", `write the windowed power timeline as CSV (scenario run with an enabled "power" block)`)
	utilCSV := fs.String("util-csv", "", `write the utilization timelines as CSV (scenario run with an enabled "utilization" block)`)
	if err := parseFlags(fs, args[1:]); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		usage()
		return fmt.Errorf("scenario %s: missing scenario file", sub)
	}
	switch sub {
	case "validate":
		for _, path := range files {
			sc, err := scenario.Load(path)
			if err != nil {
				return err
			}
			units, err := sc.Expand()
			if err != nil {
				return err
			}
			extra := ""
			if n := len(sc.Events); n > 0 {
				extra = fmt.Sprintf(", %d fault events", n)
			}
			if sc.PowerEnabled() {
				extra += ", power accounting"
			}
			fmt.Printf("%s: ok (%s, engine %s, %d units, %d assertions%s)\n",
				path, sc.Name, platformEngine(sc), len(units), len(sc.Assertions), extra)
		}
		return nil
	case "list":
		for _, path := range files {
			sc, err := scenario.Load(path)
			if err != nil {
				return err
			}
			units, err := sc.Expand()
			if err != nil {
				return err
			}
			kinds := map[scenario.JobKind]int{}
			for _, u := range units {
				kinds[u.Kind]++
			}
			fmt.Printf("%s: %s\n", path, sc.Name)
			if sc.Description != "" {
				fmt.Printf("  %s\n", sc.Description)
			}
			fmt.Printf("  engine %s\n", platformEngine(sc))
			for _, k := range []scenario.JobKind{scenario.KindCollective, scenario.KindTraining, scenario.KindMicrobench, scenario.KindMultiJob, scenario.KindGraph} {
				if n := kinds[k]; n > 0 {
					fmt.Printf("  %d %s units\n", n, k)
				}
			}
			if n := len(sc.Events); n > 0 {
				fmt.Printf("  %d fault events\n", n)
			}
			if sc.PowerEnabled() {
				fmt.Printf("  power accounting on\n")
			}
		}
		return nil
	case "run":
		// Reject a bad -format before simulating anything: grids can
		// take minutes and the results would be thrown away.
		switch *format {
		case "text", "json", "csv":
		default:
			return fmt.Errorf("scenario run: unknown -format %q (want text, json or csv)", *format)
		}
		if (*powerCSV != "" || *utilCSV != "") && len(files) > 1 {
			return fmt.Errorf("scenario run: %w: -power-csv and -util-csv take a single scenario file, got %d", errUsage, len(files))
		}
		var failed []string
		for _, path := range files {
			sc, err := scenario.Load(path)
			if err != nil {
				return err
			}
			fails, err := runScenarioFile(ctx, sc, runOpts{workers: *workers, format: *format, powerCSV: *powerCSV, utilCSV: *utilCSV})
			if err != nil {
				return err
			}
			failed = append(failed, fails...)
		}
		return assertionFailures("scenario run", failed)
	}
	usage()
	return fmt.Errorf("unknown scenario subcommand %q (want run, validate or list)", sub)
}

// runOpts selects what one scenario run writes besides its tables.
type runOpts struct {
	workers  int
	format   string // text, json or csv
	powerCSV string // windowed power timeline CSV path
	utilCSV  string // utilization timeline CSV path
	// trace runs every unit with the span collector, adding the trace
	// table. chrome, when set, also writes the validated Chrome
	// trace-event JSON there; traceCSV writes the per-unit trace
	// breakdown table as CSV.
	trace            bool
	chrome, traceCSV string
}

// runScenarioFile is the CLI's one run path: it runs one scenario,
// prints its results in o.format plus the files o names, and returns
// its assertion failures prefixed with the scenario name. Fast-engine
// fallbacks to full DES are named on stderr. A canceled run flushes the
// completed units and returns errInterrupted.
func runScenarioFile(ctx context.Context, sc *scenario.Scenario, o runOpts) ([]string, error) {
	res, err := scrunner.RunContext(ctx, sc, scrunner.Options{Workers: o.workers, Trace: o.trace || o.chrome != ""})
	if err != nil && (res == nil || !res.Canceled) {
		return nil, err
	}
	for _, w := range res.HybridWarnings() {
		fmt.Fprintf(os.Stderr, "acesim: warning: %s\n", w)
	}
	// Export before printing so a malformed emission fails the command.
	// A partial timeline is indistinguishable from a short run in
	// Perfetto, so a canceled run exports nothing.
	var st trace.ChromeStats
	if o.chrome != "" && !res.Canceled {
		if st, err = writeChromeFile(o.chrome, res.WriteChromeTrace); err != nil {
			return nil, err
		}
	}
	switch o.format {
	case "text":
		err = res.WriteText(os.Stdout)
	case "json":
		err = res.WriteJSON(os.Stdout)
	case "csv":
		err = res.WriteCSV(os.Stdout)
	}
	if err != nil {
		return nil, err
	}
	if res.Canceled {
		// Completed units are already flushed above; name what is
		// missing and exit 130 without touching later files.
		note := ""
		if o.chrome != "" {
			note = ", no trace file written"
		}
		fmt.Fprintf(os.Stderr, "acesim: scenario %s interrupted: %d of %d units completed%s\n",
			sc.Name, len(res.Units), res.Total, note)
		return nil, errInterrupted
	}
	for _, c := range []struct {
		path  string
		write func(io.Writer) error
	}{{o.powerCSV, res.WritePowerCSV}, {o.utilCSV, res.WriteUtilCSV}, {o.traceCSV, res.WriteTraceCSV}} {
		if c.path == "" {
			continue
		}
		if err := writeFile(c.path, c.write); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", c.path)
	}
	if o.chrome != "" {
		fmt.Printf("wrote %s (%d spans, %d counter samples, %d processes) — load in https://ui.perfetto.dev\n",
			o.chrome, st.Spans, st.Counters, st.Procs)
	}
	var failed []string
	for _, f := range res.Failures() {
		failed = append(failed, fmt.Sprintf("%s: %s", sc.Name, f))
	}
	return failed, nil
}

// writeFile creates path and fills it via write; a failed write or
// close fails the command.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// assertionFailures turns collected assertion failures into one error
// (nil when there are none).
func assertionFailures(what string, failed []string) error {
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d assertion failure(s):\n  %s", what, len(failed), strings.Join(failed, "\n  "))
}

// platformEngine names the scenario's execution engine in its canonical
// spelling (no platform block or an empty field is full DES). Expand
// has already vetted the field, so a parse failure cannot happen here.
func platformEngine(sc *scenario.Scenario) collectives.Engine {
	if sc.Platform == nil {
		return collectives.EngineDES
	}
	eng, _ := collectives.ParseEngine(sc.Platform.Engine)
	return eng
}

func show(tab *report.Table, err error) error {
	if err != nil {
		return err
	}
	if err := tab.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// table4 prints the Table IV report at the paper's design point.
func table4() error { return show(exper.Table4(hwmodel.DefaultConfig()), nil) }

// table5 prints the platform parameters, which are the same at every
// fabric size.
func table5() error {
	return show(exper.Table5(system.NewSpec(noc.Torus3(4, 8, 4), system.ACE)), nil)
}

func table6() error { return show(exper.Table6(), nil) }

func analytic() error {
	toruses := []noc.Topology{noc.Torus3(4, 2, 2), noc.Torus3(4, 4, 4), noc.Torus3(4, 8, 4)}
	_, tab, err := exper.AnalyticVIA(toruses, 4<<20)
	return show(tab, err)
}
