// Command perfbench is acesim's benchmark: it generates one of four
// seeded workloads, runs it for a fixed time, checks every output and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a separate traced run) as one JSON line. See README.md.
//
//	bash perfbench/run.sh --workload des-sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off on every workload. A pass's CPU time stands in for its
// wall time: on the reference machine, a virtual machine, the
// hypervisor steals 2-25% of the CPU time, and that moves the wall time
// of the same pass by up to 40% between runs. The wall time is printed
// with the other details (wall_s, units_per_s).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics of the traced run, reported on every
// workload. Counts read zero where a workload bypasses the layer.
var perLayer = []metricDef{
	{"des.events", "count"},
	{"des.ns_per_event", "ns"},
	{"resource.requests", "count"},
	{"noc.wire_bytes", "bytes"},
	{"noc.injected_bytes", "bytes"},
	{"noc.link_util", "ratio"},
	{"npu.kernels", "count"},
	{"npu.compute_busy_us", "sim_us"},
	{"core.ace_busy_us", "sim_us"},
	{"collectives.issued", "count"},
	{"collectives.hybrid_taken", "count"},
	{"collectives.shadow_events", "count"},
	{"collectives.hybrid_engaged_frac", "ratio"},
	{"graph.ops", "count"},
	{"graph.lower_ms", "ms"},
	{"system.build_ms_p50", "ms"},
	{"system.build_ms_total", "ms"},
	{"scenario.expand_ms", "ms"},
	{"runner.unit_p50_ms", "ms"},
	{"runner.unit_tail_ms", "ms"},
	{"runner.pool_idle_frac", "ratio"},
	{"runner.alloc_mb", "MiB"},
	{"runner.render_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.export_mb", "MiB"},
	{"power.windows", "count"},
	{"serve.key_us", "us"},
	{"bench.trace_overhead_frac", "ratio"},
}

// workloadNames lists the implemented workloads. BENCHMARK.json lists
// those whose runs pass every check (README.md, "serve-mixed").
var workloadNames = []string{"des-sweep", "hybrid-sweep", "observed-sweep", "serve-mixed"}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's results.
type report struct {
	t tally
	// metrics holds the values printed on the last line.
	metrics map[string]metric
	// detail holds what the last line has no room for: metrics that
	// apply to one workload only, the base of each ratio, tail
	// percentiles with their sample counts, and the per-layer self-time
	// rollup.
	detail map[string]any
	spans  []span
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep := newReport()
	if err := measure(o, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := rep.metrics[d.name]; !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", o.workload, d.name)
			return 1
		}
	}
	res := result{Attempted: rep.t.attempted, Failed: rep.t.failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	for _, d := range want {
		res.Metrics[d.name] = rep.metrics[d.name]
	}
	rep.detail["failed_frac"] = rep.t.frac()
	rep.detail["failures"] = rep.t.errs
	if err := writeDetail(o, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printDetail(stdout, rep)
	for _, e := range rep.t.errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var secs, trace int
	fs.StringVar(&o.workload, "workload", "", "workload: des-sweep, hybrid-sweep, observed-sweep or serve-mixed")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload generator seed")
	fs.IntVar(&secs, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for the detail report and span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if secs < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1
	return o, nil
}

// measure dispatches to the workload.
func measure(o options, rep *report) error {
	switch o.workload {
	case "des-sweep":
		return sweepWorkload{name: o.workload, gen: desSweep}.measure(o, rep)
	case "hybrid-sweep":
		return sweepWorkload{name: o.workload, gen: hybridSweep, shared: desSweep}.measure(o, rep)
	case "observed-sweep":
		return sweepWorkload{name: o.workload, gen: observedSweep, export: true}.measure(o, rep)
	}
	return measureServe(o, rep)
}

// writeDetail saves the detail report, and the span file of a traced
// run, under o.out.
func writeDetail(o options, rep *report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if o.trace {
		mode = "traced"
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, mode))
	if rep.spans != nil {
		if err := writeSpans(base+"-spans.jsonl", rep.spans); err != nil {
			return err
		}
	}
	doc := map[string]any{"workload": o.workload, "seed": o.seed, "metrics": rep.metrics, "detail": rep.detail}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(b, '\n'), 0o644)
}

// printDetail writes every measured value, one per line, above the
// result line.
func printDetail(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	keys := make([]string, 0, len(rep.detail))
	for k := range rep.detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(rep.detail[k])
		fmt.Fprintf(w, "%-34s %s\n", k, b)
	}
}
