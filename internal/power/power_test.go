package power

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"acesim/internal/des"
	"acesim/internal/trace"
)

// testCoeff mirrors the ACE-preset defaults so the hand-computed
// arithmetic below stays readable.
var testCoeff = Coefficients{
	ComputePJPerCycle: 200_000,
	HBMPJPerByte:      30,
	ACEBusyW:          10,
	DMABusyW:          15,
	LinkPJPerBit:      10,
	ForwardPJPerByte:  5,
	StaticNPUW:        75,
	StaticACEW:        2,
	StaticLinkW:       1,
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s = %v, want exactly 0", name, got)
		}
		return
	}
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

// TestEnergyBreakdown hand-computes every term of the joule split for
// one usage snapshot and checks the derived power figures.
func TestEnergyBreakdown(t *testing.T) {
	u := Usage{
		ComputeBusy: 1_000_000, // 1 us busy
		FreqGHz:     1.5,
		HBMBytes:    1_000_000,
		ACEBusy:     2_000_000,
		DMABusy:     4_000_000,
		WireBytes:   3_000_000,
		InjectedBts: 1_000_000,
		Nodes:       2,
		ACEs:        2,
		Links:       4,
		Makespan:    10_000_000, // 10 us
	}
	b := testCoeff.Energy(u)
	// 1e6 ps x 1.5 GHz x 1e-3 = 1500 cycles; x 2e5 pJ = 3e8 pJ.
	approx(t, "ComputeJ", b.ComputeJ, 3e-4)
	// 1e6 B x 30 pJ/B.
	approx(t, "HBMJ", b.HBMJ, 3e-5)
	// 2e6 ps x 10 W + 4e6 ps x 15 W.
	approx(t, "ACEJ", b.ACEJ, 8e-5)
	// 3e6 B x 80 pJ/B wire + 2e6 forwarded B x 5 pJ/B.
	approx(t, "LinkJ", b.LinkJ, 2.5e-4)
	// (2x75 + 2x2 + 4x1) = 158 W leakage over 10 us.
	approx(t, "StaticJ", b.StaticJ, 1.58e-3)
	total := 3e-4 + 3e-5 + 8e-5 + 2.5e-4 + 1.58e-3
	approx(t, "TotalJ", b.TotalJ, total)
	approx(t, "AvgW", b.AvgW, total/1e-5)
	approx(t, "EDP", b.EDP, total*1e-5)
	approx(t, "PerfPerWatt", b.PerfPerWatt, 1/total)
	if b.PeakW != 0 {
		t.Fatalf("PeakW = %v; the lifetime meters must leave peak to the sampler", b.PeakW)
	}
}

// TestEnergyEdgeCases pins the forward-hop clamp and the zero-makespan
// guards on the derived figures.
func TestEnergyEdgeCases(t *testing.T) {
	// Injected > wire (possible only through override abuse) clamps the
	// forwarded-byte term to zero instead of crediting energy back.
	u := Usage{WireBytes: 100, InjectedBts: 500, Makespan: 1_000_000}
	b := testCoeff.Energy(u)
	approx(t, "LinkJ", b.LinkJ, 100*80e-12)

	// A zero-makespan run must not divide by zero.
	z := testCoeff.Energy(Usage{HBMBytes: 10})
	if z.AvgW != 0 || z.EDP != 0 || z.PerfPerWatt != 0 {
		t.Fatalf("zero-makespan derived figures nonzero: %+v", z)
	}

	// All-idle usage yields zero dynamic energy but still leaks.
	idle := testCoeff.Energy(Usage{Nodes: 1, Makespan: 1_000_000})
	approx(t, "idle StaticJ", idle.StaticJ, 75e-6)
	approx(t, "idle TotalJ", idle.TotalJ, 75e-6)
}

// TestCoefficientHelpers checks the unit conversions behind the watt
// helpers used by the hot-path sampling hooks.
func TestCoefficientHelpers(t *testing.T) {
	approx(t, "ComputeW", testCoeff.ComputeW(1.5), 200_000*1.5*1e-3) // 300 W
	approx(t, "HBMW", testCoeff.HBMW(900), 30*900*1e-3)              // 27 W
	approx(t, "LinkPJPerByte", testCoeff.LinkPJPerByte(), 80)
	approx(t, "StaticW", testCoeff.StaticW(16, 16, 96), 16*75+16*2+96*1)
}

// sampleSampler builds a 1000 ps-window sampler with one interval per
// dynamic group and 1 W of static draw:
//
//	window:   0        1        2
//	compute:  2 W      -        -
//	hbm:      -        3 W      -
//	fabric:   2 W      2 W      -     (4 W spanning [500, 1500))
func sampleSampler() *Sampler {
	s := NewSampler(1000)
	s.StaticW = 1
	s.Compute.AddEnergy(0, 1000, 2)
	s.HBM.AddEnergy(1000, 2000, 3)
	s.Fabric.AddEnergy(500, 1500, 4)
	return s
}

// TestSamplerTimeline checks window counting, per-window totals and the
// peak scan, including the static tail past the last dynamic window.
func TestSamplerTimeline(t *testing.T) {
	s := sampleSampler()
	const makespan = des.Time(2500)
	if got := s.Windows(makespan); got != 3 {
		t.Fatalf("Windows = %d, want 3 (ceil of 2.5)", got)
	}
	approx(t, "TotalW(0)", s.TotalW(0), 2+2+1)
	approx(t, "TotalW(1)", s.TotalW(1), 3+2+1)
	approx(t, "TotalW(2)", s.TotalW(2), 1) // static only
	approx(t, "PeakW", s.PeakW(makespan), 6)
	if got := NewSampler(0).Window; got != DefaultWindow {
		t.Fatalf("default window = %v, want %v", got, DefaultWindow)
	}
	var nilSampler *Sampler
	if nilSampler.Windows(makespan) != 0 || nilSampler.PeakW(makespan) != 0 {
		t.Fatal("nil sampler should report an empty timeline")
	}
}

// TestSamplerAbsorbFrom checks the hybrid fold at the sampler level:
// folding a shadow twice doubles every dynamic group exactly.
func TestSamplerAbsorbFrom(t *testing.T) {
	shadow := sampleSampler()
	s := NewSampler(1000)
	s.StaticW = 1
	s.AbsorbFrom(shadow, 2)
	approx(t, "TotalW(0)", s.TotalW(0), 2*(2+2)+1)
	approx(t, "TotalW(1)", s.TotalW(1), 2*(3+2)+1)
	s.AbsorbFrom(nil, 5) // no-op
	approx(t, "TotalW(0) after nil fold", s.TotalW(0), 2*(2+2)+1)
}

// TestSamplerWriteCSV checks the standalone timeline export: header,
// one row per window, and the static tail present on the final row.
func TestSamplerWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleSampler().WriteCSV(&buf, 2500); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_us,compute_w,hbm_w,fabric_w,static_w,total_w" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("got %d rows, want 3 windows + header:\n%s", len(lines)-1, buf.String())
	}
	if lines[1] != "0.000,2.000,0.000,2.000,1.000,5.000" {
		t.Fatalf("window 0 row = %q", lines[1])
	}
	// 1000 ps windows start at 0.001 us steps, formatted %.3f.
	if lines[3] != "0.002,0.000,0.000,0.000,1.000,1.000" {
		t.Fatalf("static-tail row = %q", lines[3])
	}
}

// TestSamplerEmitCounters checks the Chrome-trace merge: four counter
// tracks, one sample per window each, that survive schema validation.
func TestSamplerEmitCounters(t *testing.T) {
	s := sampleSampler()
	tr := trace.New()
	// ValidateChrome requires at least one span; give the document one.
	work := tr.RegisterTrack("work", 0, trace.KindOther)
	tr.Span(work, tr.Label("test", "kernel"), 0, 2500, 0)
	s.EmitCounters(tr, 2500)
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, []trace.Export{{Label: "power", T: tr}}); err != nil {
		t.Fatal(err)
	}
	st, err := trace.ValidateChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Counters != 4*3 {
		t.Fatalf("emitted %d counter samples, want 4 groups x 3 windows", st.Counters)
	}
	// Disabled tracer and nil sampler are no-ops.
	var off *trace.Tracer
	s.EmitCounters(off, 2500)
	var nilSampler *Sampler
	nilSampler.EmitCounters(tr, 2500)
}
