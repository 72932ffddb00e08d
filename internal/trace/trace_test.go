package trace

import (
	"bytes"
	"strings"
	"testing"
)

// TestNilFastPath pins the disabled-tracing contract: every recording
// method on a nil Tracer is a no-op with zero allocations.
func TestNilFastPath(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if id := tr.RegisterTrack("x", 0, KindLink); id != 0 {
		t.Fatalf("nil RegisterTrack = %d, want 0", id)
	}
	if got := tr.Breakdown(); got != (Breakdown{}) {
		t.Fatalf("nil Breakdown = %+v, want zero", got)
	}
	if tr.Tracks() != nil || tr.Spans() != nil || tr.Counters() != nil || tr.NumSpans() != 0 {
		t.Fatal("nil tracer returned non-empty data")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span(0, CatComm, "s", 0, 10, 0)
		tr.Count(0, "c", 0, 1)
		tr.SetProc("p")
	})
	if allocs != 0 {
		t.Fatalf("nil-path allocations: %v per run, want 0", allocs)
	}
}

func TestRegisterTrackDedup(t *testing.T) {
	tr := New()
	a := tr.RegisterTrack("npu0/compute", 0, KindCompute)
	b := tr.RegisterTrack("npu0/compute", 0, KindCompute)
	if a != b {
		t.Fatalf("same (proc, name) registered twice: %d vs %d", a, b)
	}
	tr.SetProc("jobA")
	c := tr.RegisterTrack("npu0/compute", 0, KindCompute)
	if c == a {
		t.Fatal("distinct procs share a track")
	}
	if got := len(tr.Tracks()); got != 2 {
		t.Fatalf("tracks = %d, want 2", got)
	}
	if tr.Tracks()[c].Proc != "jobA" {
		t.Fatalf("proc label = %q, want jobA", tr.Tracks()[c].Proc)
	}
}

func TestSpanDropsEmpty(t *testing.T) {
	tr := New()
	id := tr.RegisterTrack("x", 0, KindOther)
	tr.Span(id, CatComm, "zero", 5, 5, 0)
	tr.Span(id, CatComm, "neg", 5, 4, 0)
	tr.Span(id, CatComm, "ok", 5, 6, 0)
	if tr.NumSpans() != 1 {
		t.Fatalf("spans = %d, want 1 (zero/negative dropped)", tr.NumSpans())
	}
}

// TestBreakdown checks the overlap accounting on a hand-built timeline:
// node 0 computes [0,100) with comm [50,150) → 50 overlapped, 50
// exposed; node 1 has comm [0,40) and no compute → all exposed. A
// per-job lane (Node < 0) and a side span must not enter the math.
func TestBreakdown(t *testing.T) {
	tr := New()
	c0 := tr.RegisterTrack("npu0/compute", 0, KindCompute)
	m0 := tr.RegisterTrack("npu0/coll", 0, KindComm)
	m1 := tr.RegisterTrack("npu1/coll", 1, KindComm)
	link := tr.RegisterTrack("link0", 0, KindLink)
	hbm := tr.RegisterTrack("npu0/hbm", 0, KindHBM)
	job := tr.RegisterTrack("steps", -1, KindOther)

	tr.Span(c0, CatCompute, "k", 0, 100, 0)
	// Two overlapping comm spans on node 0 union to [50,150).
	tr.Span(m0, CatComm, "ar/p0", 50, 120, 0)
	tr.Span(m0, CatComm, "ar/p1", 100, 150, 0)
	tr.Span(m1, CatComm, "ar/p0", 0, 40, 0)
	tr.Span(link, CatLink, "link0", 0, 75, 0)  // util 75/150
	tr.Span(hbm, CatHBM, "hbm.read", 0, 30, 0) // util 30/150; NOT comm
	tr.Span(job, CatStep, "fwd.0", 0, 150, 0)  // Node < 0: rendered only

	bd := tr.Breakdown()
	if bd.Span != 150 {
		t.Fatalf("span = %d, want 150", bd.Span)
	}
	if bd.Nodes != 2 {
		t.Fatalf("nodes = %d, want 2", bd.Nodes)
	}
	if bd.CommTotal != 140 {
		t.Fatalf("comm total = %d, want 140", bd.CommTotal)
	}
	if bd.CommOverlapped != 50 {
		t.Fatalf("overlapped = %d, want 50", bd.CommOverlapped)
	}
	if bd.CommExposed != 90 {
		t.Fatalf("exposed = %d, want 90", bd.CommExposed)
	}
	if bd.ComputeBusy != 100 {
		t.Fatalf("compute busy = %d, want 100", bd.ComputeBusy)
	}
	if want := 50.0 / 140.0; bd.OverlapFrac != want {
		t.Fatalf("overlap frac = %g, want %g", bd.OverlapFrac, want)
	}
	if want := 75.0 / 150.0; bd.LinkUtil != want {
		t.Fatalf("link util = %g, want %g", bd.LinkUtil, want)
	}
	if want := 30.0 / 150.0; bd.HBMUtil != want {
		t.Fatalf("hbm util = %g, want %g", bd.HBMUtil, want)
	}
}

// TestBreakdownProcSeparation checks that identical node indices under
// different proc labels (partitioned multi-job runs) stay distinct
// lanes: job A's compute must not overlap job B's comm.
func TestBreakdownProcSeparation(t *testing.T) {
	tr := New()
	tr.SetProc("jobA")
	ca := tr.RegisterTrack("npu0/compute", 0, KindCompute)
	tr.SetProc("jobB")
	mb := tr.RegisterTrack("npu0/coll", 0, KindComm)
	tr.SetProc("")
	tr.Span(ca, CatCompute, "k", 0, 100, 0)
	tr.Span(mb, CatComm, "ar", 0, 100, 0)
	bd := tr.Breakdown()
	if bd.CommOverlapped != 0 {
		t.Fatalf("cross-job overlap = %d, want 0", bd.CommOverlapped)
	}
	if bd.Nodes != 2 {
		t.Fatalf("nodes = %d, want 2 (one per job)", bd.Nodes)
	}
}

// buildSampleTracer emits a small but representative trace: two procs,
// counters, ties in span start times, a quoted name.
func buildSampleTracer() *Tracer {
	tr := New()
	c := tr.RegisterTrack("npu0/compute", 0, KindCompute)
	m := tr.RegisterTrack("npu0/coll", 0, KindComm)
	tr.SetProc("jobX")
	j := tr.RegisterTrack("npu0/coll", 0, KindComm)
	tr.SetProc("")
	tr.Span(m, CatComm, `ar"q/p0`, 0, 10, 1024)
	tr.Span(c, CatCompute, "k", 0, 25, 0)
	tr.Span(j, CatComm, "ar/p0", 5, 30, 2048)
	tr.Count(m, "inflight", 0, 1)
	tr.Count(m, "inflight", 10, 0)
	return tr
}

func TestChromeExportDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSampleTracer().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSampleTracer().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical tracers exported different bytes")
	}
	st, err := ValidateChrome(&a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans != 3 || st.Counters != 2 || st.Procs != 2 {
		t.Fatalf("stats = %+v, want 3 spans, 2 counters, 2 procs", st)
	}
	// Multi-unit export: same tracers, distinct unit labels and pids.
	var mu bytes.Buffer
	err = WriteChrome(&mu, []Export{
		{Label: "u0", T: buildSampleTracer()},
		{T: nil}, // skipped
		{Label: "u1", T: buildSampleTracer()},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := mu.String()
	st, err = ValidateChrome(&mu)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans != 6 || st.Procs != 4 {
		t.Fatalf("multi-unit stats = %+v, want 6 spans, 4 procs", st)
	}
	if !strings.Contains(doc, `"u0/sim"`) || !strings.Contains(doc, `"u1/jobX"`) {
		t.Fatal("unit labels missing from process names")
	}
}

func TestValidateChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":`,
		"no spans":      `{"traceEvents":[{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"x"}}],"displayTimeUnit":"ns"}`,
		"missing pid":   `{"traceEvents":[{"ph":"X","tid":0,"name":"s","ts":0,"dur":1}],"displayTimeUnit":"ns"}`,
		"negative dur":  `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"s","ts":0,"dur":-1}],"displayTimeUnit":"ns"}`,
		"unknown phase": `{"traceEvents":[{"ph":"B","pid":1,"tid":0,"name":"s","ts":0}],"displayTimeUnit":"ns"}`,
		"bad metadata":  `{"traceEvents":[{"ph":"M","pid":1,"tid":0,"name":"frame_name","args":{}}],"displayTimeUnit":"ns"}`,
	}
	for name, doc := range cases {
		if _, err := ValidateChrome(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestMicros(t *testing.T) {
	cases := []struct {
		ps   int64
		want string
	}{
		{0, "0.000000"},
		{1, "0.000001"},
		{999999, "0.999999"},
		{1000000, "1.000000"},
		{123456789, "123.456789"},
		{-1500000, "-1.500000"},
	}
	for _, tc := range cases {
		if got := micros(tc.ps); got != tc.want {
			t.Errorf("micros(%d) = %q, want %q", tc.ps, got, tc.want)
		}
	}
}

// TestEnabledSpanRecording pins the Span round trip.
func TestEnabledSpanRecording(t *testing.T) {
	tr := New()
	id := tr.RegisterTrack("srv", 3, KindLink)
	tr.Span(id, CatLink, "busy", 10, 20, 64)
	tr.Span(id, CatLink, "busy", 20, 20, 0) // dropped
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Track != id || s.Cat != CatLink || s.Name != "busy" || s.Start != 10 || s.End != 20 || s.Arg != 64 {
		t.Fatalf("span = %+v", s)
	}
}
