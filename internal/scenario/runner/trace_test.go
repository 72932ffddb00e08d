package runner_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
	"acesim/internal/trace"
)

// loadScenario parses an inline scenario body from a temp file so the
// fixtures go through the exact Load/validate path the CLI uses.
func loadScenario(t *testing.T, body string) *scenario.Scenario {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestTraceBlockEnablesTracing checks the scenario-level switch: a
// "trace" block turns the collector on (trace metrics appear, spans are
// recorded, the Chrome export validates), and without it nothing is
// collected — UnitResult.Trace stays nil and no trace_* metrics leak
// into the output.
func TestTraceBlockEnablesTracing(t *testing.T) {
	const base = `{
	  "name": "t",
	  "platform": {"toruses": ["4x2x2"], "presets": ["Ideal"]},
	  "jobs": [{"kind": "collective", "payloads_mb": [1]}]%s
	}`
	traced := loadScenario(t, fmt.Sprintf(base, `, "trace": {"enabled": true}`))
	res, err := runner.Run(traced, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ur := res.Units[0]
	if ur.Trace == nil || ur.Trace.NumSpans() == 0 {
		t.Fatal("trace block did not enable span collection")
	}
	for _, metric := range []string{"trace_comm_us", "trace_exposed_us", "overlap_frac", "trace_spans", "trace_link_util"} {
		if _, ok := ur.Metrics[metric]; !ok {
			t.Errorf("traced unit missing metric %s", metric)
		}
	}
	if got, want := ur.Metrics["trace_spans"], float64(ur.Trace.NumSpans()); got != want {
		t.Errorf("trace_spans = %g, want %g", got, want)
	}
	var buf bytes.Buffer
	if err := res.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := trace.ValidateChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans != ur.Trace.NumSpans() {
		t.Errorf("exported %d spans, tracer recorded %d", st.Spans, ur.Trace.NumSpans())
	}
	if res.TraceTable() == nil {
		t.Error("traced results have no trace table")
	}

	untraced := loadScenario(t, fmt.Sprintf(base, ""))
	res, err = runner.Run(untraced, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ur = res.Units[0]
	if ur.Trace != nil {
		t.Fatal("untraced run collected spans")
	}
	if _, ok := ur.Metrics["overlap_frac"]; ok {
		t.Fatal("untraced run emitted trace metrics")
	}
	if err := res.WriteChromeTrace(&buf); err == nil {
		t.Fatal("untraced results exported a chrome trace")
	}
	if res.TraceTable() != nil {
		t.Fatal("untraced results built a trace table")
	}
}

// TestTraceWorkerDeterminism pins the exported-trace determinism
// contract on the bundled multijob scenario (partitioned jobs, shared
// contention, per-job trace processes): the Chrome trace-event JSON
// must be byte-identical at workers=1 and workers=8. The two ~1.2 GB
// exports are compared chunk by chunk through pipes, one of them teed
// into ValidateChrome, so neither document is ever held in memory.
func TestTraceWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multijob trace renders in -short mode")
	}
	sc, err := scenario.Load("../../../examples/scenarios/multijob.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *runner.Results {
		t.Helper()
		res, err := runner.Run(sc, runner.Options{Workers: workers, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)

	pr1, pw1 := io.Pipe()
	pr8, pw8 := io.Pipe()
	prV, pwV := io.Pipe()
	var wg sync.WaitGroup
	export := func(res *runner.Results, pw *io.PipeWriter) {
		defer wg.Done()
		pw.CloseWithError(res.WriteChromeTrace(pw))
	}
	var st trace.ChromeStats
	var verr error
	wg.Add(3)
	go export(serial, pw1)
	go export(parallel, pw8)
	go func() {
		defer wg.Done()
		st, verr = trace.ValidateChrome(prV)
		// Drain what the validator leaves unread so the tee never blocks.
		_, _ = io.Copy(io.Discard, prV)
	}()
	n, err := sameBytes(io.TeeReader(pr1, pwV), pr8)
	pwV.CloseWithError(err)
	pr1.CloseWithError(err)
	pr8.CloseWithError(err)
	wg.Wait()
	if err != nil {
		t.Fatalf("workers=1 vs workers=8 chrome trace: %v", err)
	}
	if verr != nil {
		t.Fatal(verr)
	}
	spans := 0
	for _, ur := range serial.Units {
		spans += ur.Trace.NumSpans()
	}
	if st.Spans != spans {
		t.Fatalf("validated %d spans in %d bytes, tracers recorded %d", st.Spans, n, spans)
	}
}

// sameBytes reads a and b to the end in 64 KiB chunks and reports the
// first chunk where they differ. It returns the bytes compared.
func sameBytes(a, b io.Reader) (int64, error) {
	bufA, bufB := make([]byte, 64<<10), make([]byte, 64<<10)
	var off int64
	for {
		na, errA := io.ReadFull(a, bufA)
		nb, errB := io.ReadFull(b, bufB)
		for _, err := range []error{errA, errB} {
			if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
				return off, err
			}
		}
		if !bytes.Equal(bufA[:na], bufB[:nb]) {
			return off, fmt.Errorf("outputs differ in the chunk at byte %d (%d vs %d bytes read)", off, na, nb)
		}
		off += int64(na)
		if errA != nil { // a short chunk ends both streams (the chunks were equal)
			return off, nil
		}
	}
}

// multijobPeakHeapBudget bounds the peak of live and not-yet-swept heap
// objects while the bundled multijob scenario runs traced (2 workers)
// and exports its Chrome trace. Measured on a 2-core linux/amd64 VM:
// 1521-2101 MiB over three runs with 64-byte spans holding two strings
// and the fmt-based encoder; 754-851 MiB with 32-byte spans and the
// append-only encoder. The peak varies with where GC cycles land.
const multijobPeakHeapBudget = 1100 << 20

// TestMultijobTracePeakHeap pins the memory contract of tracing: the
// multijob scenario's ~10.5 M retained spans and their export stay
// under multijobPeakHeapBudget, sampled with runtime/metrics.
func TestMultijobTracePeakHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("multijob trace renders in -short mode")
	}
	sc, err := scenario.Load("../../../examples/scenarios/multijob.json")
	if err != nil {
		t.Fatal(err)
	}
	peak := peakHeapDuring(func() {
		res, err := runner.Run(sc, runner.Options{Workers: 2, Trace: true})
		if err != nil {
			t.Error(err)
			return
		}
		if err := res.WriteChromeTrace(io.Discard); err != nil {
			t.Error(err)
		}
	})
	t.Logf("peak heap objects: %.0f MiB (budget %d MiB)", float64(peak)/(1<<20), multijobPeakHeapBudget>>20)
	if peak > multijobPeakHeapBudget {
		t.Fatalf("peak heap objects %.0f MiB exceeds the %d MiB budget", float64(peak)/(1<<20), multijobPeakHeapBudget>>20)
	}
}

// peakHeapDuring runs fn and returns the largest
// /memory/classes/heap/objects:bytes reading taken every 2 ms meanwhile.
func peakHeapDuring(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	runtime.GC()
	peak := read()
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	fn()
	close(done)
	<-sampled
	return max(peak, read())
}

// TestFig4TraceGolden pins the fig4 Chrome trace across refactors: the
// full export is ~75 MB, so the golden stores its sha256 plus span and
// track counts rather than the document itself. An intentional change of
// the instrumentation (new spans, renamed tracks, different timings)
// must re-record with -update and say why.
func TestFig4TraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig4 grid in -short mode")
	}
	sc, err := scenario.Load("../../../examples/scenarios/fig4.json")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.TraceEnabled() {
		t.Fatal("bundled fig4.json no longer enables tracing")
	}
	res, err := runner.Run(sc, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkTraceDigest(t, res, "fig4_trace.digest")
}

// checkTraceDigest compares the sha256 of res's Chrome export, with its
// unit, span and track counts, against testdata/golden/<golden>, or
// records it under -update.
func checkTraceDigest(t *testing.T, res *runner.Results, golden string) {
	t.Helper()
	h := sha256.New()
	if err := res.WriteChromeTrace(h); err != nil {
		t.Fatal(err)
	}
	spans, tracks := 0, 0
	for _, ur := range res.Units {
		spans += ur.Trace.NumSpans()
		tracks += len(ur.Trace.Tracks())
	}
	digest := fmt.Sprintf("sha256 %x\nunits %d\nspans %d\ntracks %d\n",
		h.Sum(nil), len(res.Units), spans, tracks)
	path := filepath.Join("testdata", "golden", golden)
	if *update {
		if err := os.WriteFile(path, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if digest != string(want) {
		t.Errorf("chrome trace drifted from %s.\ngot:\n%s\nwant:\n%s", golden, digest, want)
	}
}

// TestTrainingTraceGolden pins the training step tracks in the Chrome
// export: a DLRM unit (Fig 12 optimized loop, side-stream ops included)
// with its "steps" track, and a shared-fabric multijob unit whose two
// training sub-jobs each carry a "<job>/steps" track, every one holding
// node 0's fwd.<i>/bwd.<i> windows. Like fig4_trace.digest, the golden
// stores the export's sha256 and its counts.
func TestTrainingTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("traced training units in -short mode")
	}
	sc := loadScenario(t, `{
	  "name": "training-trace",
	  "platform": {"toruses": ["4x2x2"], "presets": ["ACE"]},
	  "jobs": [
	    {"kind": "training", "workloads": ["dlrm"], "dlrm_optimized": true},
	    {"kind": "multijob", "jobs": [
	      {"name": "train-a", "workload": "resnet50", "iterations": 1},
	      {"name": "train-b", "workload": "dlrm", "iterations": 1}
	    ]}
	  ],
	  "trace": {"enabled": true}
	}`)
	res, err := runner.Run(sc, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]int{}
	for _, ur := range res.Units {
		tracks := ur.Trace.Tracks()
		labels := ur.Trace.Labels()
		for _, sp := range ur.Trace.Spans() {
			if tr := tracks[sp.Track]; strings.HasSuffix(tr.Name, "steps") && labels[sp.Label].Cat == trace.CatStep {
				steps[tr.Name]++
			}
		}
	}
	// Two iterations of fwd/bwd windows on the DLRM unit, one on each
	// sub-job.
	if want := map[string]int{"steps": 4, "train-a/steps": 2, "train-b/steps": 2}; !reflect.DeepEqual(steps, want) {
		t.Fatalf("step spans per track = %v, want %v", steps, want)
	}
	checkTraceDigest(t, res, "training_trace.digest")
}
