package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
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
		tr.Span(0, tr.Label(CatComm, "s"), 0, 10, 0)
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
	tr.Span(id, tr.Label(CatComm, "zero"), 5, 5, 0)
	tr.Span(id, tr.Label(CatComm, "neg"), 5, 4, 0)
	tr.Span(id, tr.Label(CatComm, "ok"), 5, 6, 0)
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

	tr.Span(c0, tr.Label(CatCompute, "k"), 0, 100, 0)
	// Two overlapping comm spans on node 0 union to [50,150).
	tr.Span(m0, tr.Label(CatComm, "ar/p0"), 50, 120, 0)
	tr.Span(m0, tr.Label(CatComm, "ar/p1"), 100, 150, 0)
	tr.Span(m1, tr.Label(CatComm, "ar/p0"), 0, 40, 0)
	tr.Span(link, tr.Label(CatLink, "link0"), 0, 75, 0)  // util 75/150
	tr.Span(hbm, tr.Label(CatHBM, "hbm.read"), 0, 30, 0) // util 30/150; NOT comm
	tr.Span(job, tr.Label(CatStep, "fwd.0"), 0, 150, 0)  // Node < 0: rendered only

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
	tr.Span(ca, tr.Label(CatCompute, "k"), 0, 100, 0)
	tr.Span(mb, tr.Label(CatComm, "ar"), 0, 100, 0)
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
	tr.Span(m, tr.Label(CatComm, `ar"q/p0`), 0, 10, 1024)
	tr.Span(c, tr.Label(CatCompute, "k"), 0, 25, 0)
	tr.Span(j, tr.Label(CatComm, "ar/p0"), 5, 30, 2048)
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
		"unknown field": `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"s","ts":0,"dur":1,"id":7}],"displayTimeUnit":"ns"}`,
		"unknown key":   `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"s","ts":0,"dur":1}],"metadata":{}}`,
		"not an array":  `{"traceEvents":{"ph":"X","pid":1,"tid":0,"name":"s","ts":0,"dur":1}}`,
		"truncated":     `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"s","ts":0,"dur":1},`,
		"bad unit":      `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"s","ts":0,"dur":1}],"displayTimeUnit":5}`,
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
	tr.Span(id, tr.Label(CatLink, "busy"), 10, 20, 64)
	tr.Span(id, tr.Label(CatLink, "busy"), 20, 20, 0) // dropped
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Track != id || tr.Labels()[s.Label] != (Label{Cat: CatLink, Name: "busy"}) || s.Start != 10 || s.End != 20 || s.Arg != 64 {
		t.Fatalf("span = %+v", s)
	}
}

// TestSpanIs32Bytes pins the compact span layout: three int64s plus the
// int32 track and label IDs, no strings.
func TestSpanIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got != 32 {
		t.Fatalf("sizeof(Span) = %d, want 32", got)
	}
}

// TestWriteChromeUnregisteredTrack checks that a span or counter on a
// track the tracer never registered is an error naming the track, not
// an index-out-of-range panic, and that nothing is written.
func TestWriteChromeUnregisteredTrack(t *testing.T) {
	cases := map[string]func(tr *Tracer){
		"span":    func(tr *Tracer) { tr.Span(5, tr.Label(CatComm, "s"), 0, 10, 0) },
		"counter": func(tr *Tracer) { tr.Count(5, "c", 0, 1) },
	}
	for name, record := range cases {
		tr := New()
		id := tr.RegisterTrack("only", 0, KindComm)
		tr.Span(id, tr.Label(CatComm, "ok"), 0, 10, 0)
		record(tr)
		var buf bytes.Buffer
		err := tr.WriteChrome(&buf)
		if err == nil || !strings.Contains(err.Error(), "track 5") {
			t.Errorf("%s: err = %v, want an error naming track 5", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: wrote %d bytes before failing", name, buf.Len())
		}
	}
	tr := New()
	id := tr.RegisterTrack("only", 0, KindComm)
	tr.Span(id, 3, 0, 10, 0)
	if err := tr.WriteChrome(io.Discard); err == nil || !strings.Contains(err.Error(), "label 3") {
		t.Errorf("unregistered label: err = %v, want an error naming label 3", err)
	}
}

// refWriteChrome is the fmt-based Chrome writer the append-only encoder
// replaced, kept as the reference TestWriteChromeMatchesReference
// compares against: one Sprintf per event, json.Marshal per string, a
// stable sort over span values.
func refWriteChrome(w io.Writer, units []Export) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.WriteString(line)
		return err
	}
	micros := func(ps int64) string {
		neg := ""
		if ps < 0 {
			neg, ps = "-", -ps
		}
		return fmt.Sprintf("%s%d.%06d", neg, ps/1e6, ps%1e6)
	}
	pid := 0
	for _, u := range units {
		t := u.T
		if t == nil {
			continue
		}
		pidOf := make(map[string]int, 4)
		tidOf := make([]int, len(t.tracks))
		nextTID := make(map[string]int, 4)
		procs := make([]string, 0, 4)
		for i, tk := range t.tracks {
			if _, ok := pidOf[tk.Proc]; !ok {
				pid++
				pidOf[tk.Proc] = pid
				procs = append(procs, tk.Proc)
			}
			tidOf[i] = nextTID[tk.Proc]
			nextTID[tk.Proc]++
		}
		for _, proc := range procs {
			name := proc
			if name == "" {
				name = "sim"
			}
			if u.Label != "" {
				name = u.Label + "/" + name
			}
			if err := emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`,
				pidOf[proc], jsonStr(name))); err != nil {
				return err
			}
		}
		for i, tk := range t.tracks {
			if err := emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				pidOf[tk.Proc], tidOf[i], jsonStr(tk.Name))); err != nil {
				return err
			}
			if err := emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`,
				pidOf[tk.Proc], tidOf[i], i)); err != nil {
				return err
			}
		}
		spans := t.spans
		order := make([]int, len(spans))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			sa, sb := spans[order[a]], spans[order[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			if sa.Track != sb.Track {
				return sa.Track < sb.Track
			}
			if sa.End != sb.End {
				return sa.End < sb.End
			}
			return t.labels[sa.Label].Name < t.labels[sb.Label].Name
		})
		for _, si := range order {
			s := spans[si]
			tk, l := t.tracks[s.Track], t.labels[s.Label]
			if err := emit(fmt.Sprintf(`{"ph":"X","pid":%d,"tid":%d,"name":%s,"cat":%s,"ts":%s,"dur":%s,"args":{"bytes":%d}}`,
				pidOf[tk.Proc], tidOf[s.Track], jsonStr(l.Name), jsonStr(l.Cat),
				micros(s.Start), micros(s.End-s.Start), s.Arg)); err != nil {
				return err
			}
		}
		for _, c := range t.counters {
			tk := t.tracks[c.Track]
			if err := emit(fmt.Sprintf(`{"ph":"C","pid":%d,"tid":%d,"name":%s,"ts":%s,"args":{"value":%s}}`,
				pidOf[tk.Proc], tidOf[c.Track], jsonStr(tk.Name+"."+c.Name), micros(c.At),
				strconv.FormatFloat(c.Value, 'g', -1, 64))); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// awkward strings: JSON and HTML escapes, control characters, non-ASCII,
// line/paragraph separators and invalid UTF-8.
var awkward = []string{
	"k", "ar/p0", `q"uote`, `back\slash`, "<tag>", "a&b", "ctl\x00\x01\x1f\x7f",
	"tab\tnl\nret\r\b\f", "é日本", "sep\u2028\u2029", "bad\xff\xfeutf8", "a b", "k",
}

// randomTracer builds a seeded tracer with several procs, same-start
// ties, equal names under different categories, zero and huge args and
// counters.
func randomTracer(rng *rand.Rand, spans int) *Tracer {
	tr := New()
	var tracks []TrackID
	for _, proc := range []string{"", "job<A>", `j"B`} {
		tr.SetProc(proc)
		for i := 0; i < 1+rng.Intn(4); i++ {
			tracks = append(tracks, tr.RegisterTrack(awkward[rng.Intn(len(awkward))]+strconv.Itoa(i), i-1, Kind(rng.Intn(7))))
		}
	}
	tr.SetProc("")
	cats := []string{CatComm, CatCompute, CatLink, "c&t", "é\n"}
	for i := 0; i < spans; i++ {
		start := int64(rng.Intn(50)) * int64(rng.Intn(3)*999_999+1)
		end := start + int64(rng.Intn(3)+1)*int64(rng.Intn(2)*1_234_567+1)
		var arg int64
		switch rng.Intn(3) {
		case 1:
			arg = rng.Int63n(4096)
		case 2:
			arg = math.MaxInt64 - rng.Int63n(8)
		}
		label := tr.Label(cats[rng.Intn(len(cats))], awkward[rng.Intn(len(awkward))])
		tr.Span(tracks[rng.Intn(len(tracks))], label, start, end, arg)
	}
	for i := 0; i < spans/4; i++ {
		v := []float64{0, 1, -2.5, 1e21, 1.0 / 3, math.SmallestNonzeroFloat64}[rng.Intn(6)]
		tr.Count(tracks[rng.Intn(len(tracks))], awkward[rng.Intn(len(awkward))], int64(rng.Intn(1e9)), v)
	}
	return tr
}

// TestWriteChromeMatchesReference is the encoder's differential test:
// over seeded random tracers the append-only writer must produce
// exactly the reference writer's bytes, and the document must validate.
func TestWriteChromeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var units []Export
		for u := 0; u < 1+rng.Intn(3); u++ {
			units = append(units, Export{Label: awkward[rng.Intn(len(awkward))], T: randomTracer(rng, 1+rng.Intn(400))})
		}
		if seed%5 == 0 {
			units = append(units, Export{Label: "nil"})
		}
		var got, want bytes.Buffer
		if err := WriteChrome(&got, units); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := refWriteChrome(&want, units); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("seed %d: export differs from the reference at byte %d:\ngot  %.120q\nwant %.120q",
				seed, i, g[max(i-40, 0):], w[max(i-40, 0):])
		}
		st, err := ValidateChrome(&got)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		spans := 0
		for _, u := range units {
			spans += u.T.NumSpans()
		}
		if st.Spans != spans {
			t.Fatalf("seed %d: validated %d spans, recorded %d", seed, st.Spans, spans)
		}
	}
}

// TestWriteChromeAllocsFlat checks that the encoder's allocations depend
// on the tracks and labels, not on the span count.
func TestWriteChromeAllocsFlat(t *testing.T) {
	allocs := func(spans int) float64 {
		tr := randomTracer(rand.New(rand.NewSource(7)), 0)
		rng := rand.New(rand.NewSource(8))
		labels := []LabelID{tr.Label(CatComm, "a"), tr.Label(CatLink, "b"), tr.Label(CatCompute, "c")}
		for i := 0; i < spans; i++ {
			start := rng.Int63n(1e9)
			tr.Span(TrackID(rng.Intn(len(tr.Tracks()))), labels[rng.Intn(len(labels))], start, start+1+rng.Int63n(1e6), rng.Int63n(1<<20))
		}
		units := []Export{{Label: "u", T: tr}}
		return testing.AllocsPerRun(3, func() {
			if err := WriteChrome(io.Discard, units); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(64_000)
	if large > small {
		t.Fatalf("WriteChrome allocations grow with spans: %v at 1k spans, %v at 64k", small, large)
	}
}

// BenchmarkWriteChrome encodes a 100k-span, two-unit document.
func BenchmarkWriteChrome(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	units := []Export{{Label: "u0", T: randomTracer(rng, 50_000)}, {Label: "u1", T: randomTracer(rng, 50_000)}}
	b.ReportAllocs()
	for b.Loop() {
		if err := WriteChrome(io.Discard, units); err != nil {
			b.Fatal(err)
		}
	}
}
