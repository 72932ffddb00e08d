package stats

import (
	"math/rand"
	"testing"
	"testing/quick"

	"acesim/internal/des"
)

func TestMeter(t *testing.T) {
	var m Meter
	m.Add(100)
	m.Add(200)
	if m.Total() != 300 || m.Ops() != 2 {
		t.Fatalf("total=%d ops=%d", m.Total(), m.Ops())
	}
	if got := m.Rate(des.Second); got != 300e-9 {
		t.Fatalf("rate = %v", got)
	}
	m.Reset()
	if m.Total() != 0 || m.Ops() != 0 {
		t.Fatal("reset did not clear")
	}
}

// kinds are the two ways a trace is charged: busy picoseconds (watts
// ignored) and femtojoules at the given watts.
var kinds = []struct {
	name string
	add  func(tr *Trace, start, end des.Time, watts float64)
}{
	{"busy", func(tr *Trace, start, end des.Time, _ float64) { tr.AddBusy(start, end) }},
	{"energy", (*Trace).AddEnergy},
}

// total sums every recorded window.
func total(tr *Trace) int64 {
	var sum int64
	for b := 0; b < tr.Len(); b++ {
		sum += tr.At(b)
	}
	return sum
}

func TestTraceSingleBucket(t *testing.T) {
	tr := NewTrace(100)
	tr.AddBusy(10, 60)
	if got := tr.At(0); got != 50 {
		t.Fatalf("busy = %v, want 50", got)
	}
	if got := tr.Utilization(0, 1); got != 0.5 {
		t.Fatalf("util = %v, want 0.5", got)
	}
}

// TestTraceSpansBuckets pins the busy split: an interval covering half /
// full / half of three 100 ps windows lands 50 / 100 / 50 busy
// picoseconds, and Utilization reads them over the full window width.
func TestTraceSpansBuckets(t *testing.T) {
	tr := NewTrace(100)
	tr.AddBusy(50, 250)
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for b, want := range []int64{50, 100, 50} {
		if got := tr.At(b); got != want {
			t.Fatalf("window %d = %d, want %d", b, got, want)
		}
	}
	for b, want := range []float64{0.5, 1, 0.5} {
		if got := tr.Utilization(b, 1); got != want {
			t.Fatalf("Utilization(%d) = %v, want %v", b, got, want)
		}
	}
	// Out-of-range windows read zero, not panic.
	if tr.At(99) != 0 || tr.Utilization(99, 1) != 0 {
		t.Fatal("out-of-range window should read zero")
	}
}

// TestPowerTraceWindowing pins the femtojoule bookkeeping across window
// boundaries: a 2 W interval spanning half / full / half of three
// 1000 ps windows lands exactly 1e6 / 2e6 / 1e6 fJ.
func TestPowerTraceWindowing(t *testing.T) {
	tr := NewTrace(1000)
	if !tr.Enabled() {
		t.Fatal("fresh trace with positive window should be enabled")
	}
	tr.AddEnergy(500, 2500, 2.0)
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for b, want := range []int64{1_000_000, 2_000_000, 1_000_000} {
		if got := tr.At(b); got != want {
			t.Fatalf("window %d = %d fJ, want %d", b, got, want)
		}
	}
	if got := total(tr); got != 4_000_000 {
		t.Fatalf("total = %d fJ, want 4000000", got)
	}
	// PowerW averages the window's energy over the full window width:
	// 2e6 fJ over 1000 ps is exactly 2 W.
	if got := tr.PowerW(1); got != 2.0 {
		t.Fatalf("PowerW(1) = %v, want 2", got)
	}
	if got := tr.PowerW(0); got != 1.0 {
		t.Fatalf("PowerW(0) = %v, want 1 (half-filled window)", got)
	}
	// Out-of-range windows read zero, not panic.
	if tr.At(99) != 0 || tr.PowerW(99) != 0 {
		t.Fatal("out-of-range window should read zero")
	}
}

func TestTraceBoundary(t *testing.T) {
	tr := NewTrace(100)
	tr.AddBusy(0, 100) // exactly one bucket, not two
	if tr.Len() != 1 {
		t.Fatalf("len = %d, want 1", tr.Len())
	}
	if got := tr.At(0); got != 100 {
		t.Fatalf("busy = %v, want 100", got)
	}
}

// TestTraceDegenerate pins nil-safety for busy windows: the
// zero-overhead-when-off contract means every method on a nil or
// zero-window trace is a no-op, and empty intervals record nothing.
func TestTraceDegenerate(t *testing.T) {
	var nilTrace *Trace
	if nilTrace.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	nilTrace.AddBusy(0, 10) // must not panic
	if nilTrace.Len() != 0 || nilTrace.At(0) != 0 || nilTrace.Utilization(0, 1) != 0 || nilTrace.Mean(0, 1, 1) != 0 {
		t.Fatal("nil trace should read zero everywhere")
	}
	tr := NewTrace(0) // disabled
	tr.AddBusy(0, 10)
	if tr.Enabled() || tr.Len() != 0 {
		t.Fatal("disabled trace should record nothing")
	}
	tr2 := NewTrace(10)
	tr2.AddBusy(5, 5) // empty interval
	tr2.AddBusy(8, 4) // inverted interval
	if tr2.Len() != 0 {
		t.Fatal("empty interval should record nothing")
	}
}

// TestPowerTraceDisabled is the same contract for energy windows, plus
// zero watts: nothing is recorded and every read is zero.
func TestPowerTraceDisabled(t *testing.T) {
	var nilTrace *Trace
	nilTrace.AddEnergy(0, 100, 1) // must not panic
	if nilTrace.Len() != 0 || nilTrace.At(0) != 0 || nilTrace.PowerW(0) != 0 {
		t.Fatal("nil trace should read zero everywhere")
	}
	zero := NewTrace(0)
	if zero.Enabled() {
		t.Fatal("zero-window trace reports enabled")
	}
	zero.AddEnergy(0, 100, 1)
	if zero.Len() != 0 || zero.PowerW(0) != 0 {
		t.Fatal("disabled trace accumulated a window")
	}
	// Degenerate adds on an enabled trace are dropped too.
	tr := NewTrace(1000)
	tr.AddEnergy(100, 100, 5) // empty interval
	tr.AddEnergy(200, 100, 5) // inverted interval
	tr.AddEnergy(0, 1000, 0)  // zero watts
	if tr.Len() != 0 || total(tr) != 0 {
		t.Fatalf("degenerate adds accumulated: len %d, %d fJ", tr.Len(), total(tr))
	}
}

func TestTraceConservation(t *testing.T) {
	// Total recorded busy time equals the interval length regardless of
	// how it straddles buckets.
	f := func(s, d uint16) bool {
		start := des.Time(s)
		end := start + des.Time(d%5000) + 1
		tr := NewTrace(37)
		tr.AddBusy(start, end)
		return total(tr) == int64(end-start)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceMean(t *testing.T) {
	tr := NewTrace(100)
	tr.AddBusy(0, 100)   // bucket 0 util 1.0
	tr.AddBusy(150, 200) // bucket 1 util 0.5
	if got := tr.Mean(0, 2, 1); got != 0.75 {
		t.Fatalf("mean = %v, want 0.75", got)
	}
	if got := tr.Mean(1, 1, 1); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
}

// TestTraceAddBusyProperty pins AddBusy and Utilization against a
// brute-force per-picosecond reference over randomized interval sets.
// This guards the bucket-growth and partial-overlap arithmetic (the
// growth loop once reallocated per bucket; see git history).
func TestTraceAddBusyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const bucket = des.Time(7) // deliberately not a divisor of anything
	for trial := 0; trial < 200; trial++ {
		tr := NewTrace(bucket)
		ref := make(map[int]int64)
		n := rng.Intn(8) + 1
		for i := 0; i < n; i++ {
			start := des.Time(rng.Intn(200))
			end := start + des.Time(rng.Intn(60)-5) // sometimes empty/negative
			tr.AddBusy(start, end)
			for p := start; p < end; p++ {
				ref[int(p/bucket)]++
			}
		}
		maxB := -1
		for b := range ref {
			if b > maxB {
				maxB = b
			}
		}
		if got := tr.Len(); maxB >= 0 && got != maxB+1 {
			t.Fatalf("trial %d: Len = %d, want %d", trial, got, maxB+1)
		}
		for b := 0; b <= maxB; b++ {
			if got := tr.At(b); got != ref[b] {
				t.Fatalf("trial %d: At(%d) = %d, want %d", trial, b, got, ref[b])
			}
			cap := float64(rng.Intn(3) + 1)
			if got, want := tr.Utilization(b, cap), float64(ref[b])/(cap*float64(bucket)); got != want {
				t.Fatalf("trial %d: Utilization(%d, %g) = %g, want %g", trial, b, cap, got, want)
			}
		}
	}
}

// TestTraceOrderIndependence is the determinism core: each interval is
// split (and, for energy, rounded) per window independently, so any
// arrival order (the workers=N case) accumulates the identical integers.
func TestTraceOrderIndependence(t *testing.T) {
	const window = des.Time(700) // deliberately not a divisor of the spans
	type ev struct {
		start, end des.Time
		w          float64
	}
	evs := []ev{
		{0, 1300, 1.75},
		{350, 4200, 0.333},
		{1299, 1301, 12.5},
		{2000, 2100, 7.0},
		{100, 6999, 0.01},
	}
	for _, k := range kinds {
		build := func(perm []int) *Trace {
			tr := NewTrace(window)
			for _, i := range perm {
				k.add(tr, evs[i].start, evs[i].end, evs[i].w)
			}
			return tr
		}
		ref := build([]int{0, 1, 2, 3, 4})
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 10; trial++ {
			perm := rng.Perm(len(evs))
			got := build(perm)
			if got.Len() != ref.Len() {
				t.Fatalf("%s perm %v: Len %d != %d", k.name, perm, got.Len(), ref.Len())
			}
			for b := 0; b < ref.Len(); b++ {
				if got.At(b) != ref.At(b) {
					t.Fatalf("%s perm %v window %d: %d != %d", k.name, perm, b, got.At(b), ref.At(b))
				}
			}
		}
	}
}

// TestTraceAbsorbFrom checks the hybrid-fold primitive: absorbing a
// shadow trace N times scales every window by exactly N on integers.
func TestTraceAbsorbFrom(t *testing.T) {
	const window = des.Time(1000)
	for _, k := range kinds {
		shadow := NewTrace(window)
		k.add(shadow, 250, 3250, 1.234)
		sum := NewTrace(window)
		k.add(sum, 0, 500, 5.0)
		base0 := sum.At(0)
		sum.AbsorbFrom(shadow, 3)
		if sum.Len() != shadow.Len() {
			t.Fatalf("%s: Len = %d, want %d", k.name, sum.Len(), shadow.Len())
		}
		for b := 0; b < sum.Len(); b++ {
			want := 3 * shadow.At(b)
			if b == 0 {
				want += base0
			}
			if got := sum.At(b); got != want {
				t.Fatalf("%s window %d: %d, want %d", k.name, b, got, want)
			}
		}
		// Nil / disabled / non-positive folds are no-ops.
		before := total(sum)
		sum.AbsorbFrom(nil, 2)
		sum.AbsorbFrom(shadow, 0)
		var disabled *Trace
		disabled.AbsorbFrom(shadow, 2)
		if total(sum) != before {
			t.Fatalf("%s: no-op folds changed the accumulated windows", k.name)
		}
	}
}
