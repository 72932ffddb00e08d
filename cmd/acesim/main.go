// Command acesim regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index), runs declarative
// scenario files (see README.md for the schema), executes and converts
// workload execution graphs (see DESIGN.md, "Execution-graph IR"), and
// records simulator performance baselines (see PERF.md for the
// methodology).
//
// Usage:
//
//	acesim <experiment> [flags]
//	acesim scenario run|validate|list [flags] <file>...
//	acesim graph run|convert|validate [flags] <file>...
//	acesim trace [-out trace.json] [flags] <scenario.json|graph.json>
//	acesim bench [-short] [-runs N] [-out path]
//
// Experiments: fig4 fig5 fig6 fig9a fig9b fig10 fig11 fig12 table4 table5
// table6 analytic ablation interference all
//
// fig4, fig5, fig6, fig11 and fig12 run the bundled scenario file of
// the same name (embedded in the binary) and print it the way `scenario
// run` does; ablation runs ablation_forwarding.json, ablation_switch.json
// and ablation_scheduling.json, and interference runs multijob.json
// with tracing on. The bundled figures take no flags: to change one,
// edit a copy of its file and run that with `acesim scenario run`.
//
// Experiment flags (an experiment rejects a flag it does not read):
//
//	-size SHAPE   fabric topology of fig9b, fig10 and table5 (default
//	              4x8x4; sizes joined by "x", "m" suffix = mesh dimension)
//	-quick        shrink fig9a, fig9b, fig10 and analytic for a fast pass
//	              (small sizes, fewer points)
//	-csv dir      write Fig 10 utilization timelines as CSV files into dir
//
// Scenario flags:
//
//	-workers N    parallel work units (default GOMAXPROCS)
//	-format f     run output format: text, json or csv (default text)
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
	"path/filepath"
	"slices"
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
	"acesim/internal/workload"
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
	if cmd == "bench" {
		return runBench(args[1:])
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
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	sizeStr := fs.String("size", "4x8x4", "fabric topology for single-size experiments (sizes joined by \"x\", \"m\" suffix = mesh dim)")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast pass")
	csvDir := fs.String("csv", "", "write Fig 10 timelines as CSV into this directory")
	if err := parseFlags(fs, args[1:]); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: %w: unexpected argument %q", cmd, errUsage, fs.Arg(0))
	}
	// Method expressions take the runner as an argument, so every
	// experiment sees the flags parsed below, also under `all`.
	all := map[string]func(runner) error{
		"fig9a": runner.fig9a, "fig9b": runner.fig9b, "fig10": runner.fig10,
		"table4": runner.table4, "table5": runner.table5, "table6": runner.table6,
		"analytic": runner.analytic,
	}
	for name := range bundledFigures {
		all[name] = func(runner) error { return runBundled(ctx, name) }
	}
	all["all"] = func(r runner) error {
		for _, name := range []string{
			"table5", "table6", "table4", "analytic", "fig4", "fig5", "fig6",
			"fig9a", "fig9b", "fig10", "fig11", "fig12", "ablation",
			"interference",
		} {
			if err := all[name](r); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := all[cmd]
	if !ok {
		usage()
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	if err := unreadFlags(fs, cmd); err != nil {
		return err
	}
	size, err := parseTorus(*sizeStr)
	if err != nil {
		return err
	}
	return fn(runner{size: size, quick: *quick, csvDir: *csvDir})
}

// flagReaders names the experiments that read each experiment flag.
// Any other experiment rejects the flag; `all` passes each flag to its
// readers and runs the rest unchanged.
var flagReaders = map[string][]string{
	"size":  {"fig9b", "fig10", "table5"},
	"quick": {"fig9a", "fig9b", "fig10", "analytic"},
	"csv":   {"fig10"},
}

// unreadFlags fails with errUsage when a flag is set that cmd does not
// read. A bundled figure names the files to edit instead.
func unreadFlags(fs *flag.FlagSet, cmd string) error {
	if cmd == "all" {
		return nil
	}
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(flagReaders[f.Name], cmd) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	flags := strings.Join(set, " ")
	if fig, ok := bundledFigures[cmd]; ok {
		return fmt.Errorf("%s: %w: %s does not apply to a bundled figure; edit a copy of examples/scenarios/%s and run it with `acesim scenario run`",
			cmd, errUsage, flags, strings.Join(fig.files, ", "))
	}
	return fmt.Errorf("%s: %w: %s does not apply to %s", cmd, errUsage, flags, cmd)
}

// bundledFigure is an experiment that runs bundled scenario files, in
// order. A traced figure also prints the exposed-communication table.
type bundledFigure struct {
	files []string
	trace bool
}

// bundledFigures maps the experiments that run bundled scenario files to
// those files. They always run at the files' full size: no experiment
// flag applies to them, even under `all`.
var bundledFigures = map[string]bundledFigure{
	"fig4":         {files: []string{"fig4.json"}},
	"fig5":         {files: []string{"fig5.json"}},
	"fig6":         {files: []string{"fig6.json"}},
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
	fmt.Fprintln(os.Stderr, `usage: acesim <experiment> [-size SHAPE] [-quick] [-csv dir]
       acesim scenario run|validate|list [-workers N] [-format text|json|csv] [-power-csv path] <file>...
       acesim graph run [-size SHAPE] [-preset P] [-engine des|hybrid|analytic] [-power] <graph.json>...
       acesim graph convert -workload W [-size SHAPE] [-iterations N] [pipeline/loop flags] [-out path]
       acesim graph validate <graph.json>...
       acesim trace [-out trace.json] [-csv path] [-workers N] <scenario.json>
       acesim trace [-out trace.json] [-csv path] [-size SHAPE] [-preset P] <graph.json>
       acesim bench [-short] [-runs N] [-out path]
       acesim serve [-addr :8080] [-workers N] [-queue UNITS] [-smoke scenario.json] [-stress [stress flags]]
experiments: fig4 fig5 fig6 fig9a fig9b fig10 fig11 fig12
             table4 table5 table6 analytic ablation interference all
-size: fig9b fig10 table5; -quick: fig9a fig9b fig10 analytic; -csv: fig10.
The other experiments take no flags; the bundled figures fig4 fig5 fig6
fig11 fig12 ablation interference run files under examples/scenarios/.`)
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
		if *powerCSV != "" && len(files) > 1 {
			return fmt.Errorf("scenario run: %w: -power-csv takes a single scenario file, got %d", errUsage, len(files))
		}
		var failed []string
		for _, path := range files {
			sc, err := scenario.Load(path)
			if err != nil {
				return err
			}
			fails, err := runScenarioFile(ctx, sc, runOpts{workers: *workers, format: *format, powerCSV: *powerCSV})
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
	}{{o.powerCSV, res.WritePowerCSV}, {o.traceCSV, res.WriteTraceCSV}} {
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

type runner struct {
	size   noc.Topology
	quick  bool
	csvDir string
}

func (r runner) models() []*workload.Model {
	if r.quick {
		return []*workload.Model{workload.ResNet50(workload.ResNet50Batch), workload.DLRM(workload.DLRMBatch)}
	}
	return workload.All()
}

func (r runner) trainSize() noc.Topology {
	if r.quick {
		return noc.Torus3(4, 2, 2)
	}
	return r.size
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

func (r runner) fig9a() error {
	srams, fsms := exper.Fig9aDefaults()
	t := noc.Torus3(4, 2, 2) // design sweep on the 16-NPU platform
	models := r.models()
	if r.quick {
		srams = []int64{1 << 20, 4 << 20}
		fsms = []int{4, 16}
		models = models[:1]
	}
	_, tab, err := exper.Fig9a(t, models, srams, fsms)
	return show(tab, err)
}

func (r runner) fig9b() error {
	_, tab, err := exper.Fig9b(r.trainSize(), r.models())
	return show(tab, err)
}

func (r runner) fig10() error {
	presets := []system.Preset{system.BaselineCommOpt, system.BaselineCompOpt, system.ACE, system.Ideal}
	traces, tab, err := exper.Fig10(r.trainSize(), r.models(), presets)
	if err != nil {
		return err
	}
	if r.csvDir != "" {
		if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
			return err
		}
		for _, tr := range traces {
			name := fmt.Sprintf("fig10_%s_%s.csv",
				strings.ToLower(strings.ReplaceAll(tr.Row.Workload, "-", "")), tr.Row.Preset)
			path := filepath.Join(r.csvDir, name)
			// A full disk or yanked volume surfaces here, not as a
			// silent "wrote N timelines": every write error — including
			// the buffered ones Close reports — fails the command.
			if err := writeFile(path, func(w io.Writer) error {
				_, err := fmt.Fprintln(w, "time_us,net_util,compute_util")
				for b := 0; err == nil && b < len(tr.NetUtil); b++ {
					_, err = fmt.Fprintf(w, "%d,%.4f,%.4f\n", b, tr.NetUtil[b], tr.CmpUtil[b])
				}
				return err
			}); err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
		fmt.Printf("wrote %d timelines to %s\n", len(traces), r.csvDir)
	}
	return show(tab, nil)
}

func (r runner) table4() error {
	return show(Table4(), nil)
}

// Table4 builds the Table IV report at the paper's design point.
func Table4() *report.Table { return exper.Table4(hwmodel.DefaultConfig()) }

func (r runner) table5() error {
	return show(exper.Table5(system.NewSpec(r.size, system.ACE)), nil)
}

func (r runner) table6() error {
	return show(exper.Table6(), nil)
}

func (r runner) analytic() error {
	toruses := []noc.Topology{noc.Torus3(4, 2, 2), noc.Torus3(4, 4, 4), noc.Torus3(4, 8, 4)}
	if r.quick {
		toruses = toruses[:2]
	}
	_, tab, err := exper.AnalyticVIA(toruses, 4<<20)
	return show(tab, err)
}
