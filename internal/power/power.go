// Package power derives energy and power figures from the simulator's
// existing busy-time and byte meters. Nothing here observes events:
// total energy is computed once, after the run, from lifetime meters
// (server busy times, wire/HBM byte counts), which makes the joule
// numbers engine-independent by construction — des, hybrid and
// analytic runs report identical energy wherever their meters agree.
//
// On top of the totals sits a time-windowed Sampler: busy-interval
// observers on every rate server and compute stream (attached by
// system.BuildOn) charge the intervals into integer-femtojoule
// stats.Trace windows, yielding a watts-over-sim-time timeline per
// component group (compute / hbm / fabric / static) with deterministic
// window boundaries — workers=1 vs N, and des vs hybrid, produce
// byte-identical timelines.
//
// Units: coefficients are picojoules per cycle/byte/bit and watts for
// busy/static draw; energies are reported in joules, power in watts.
package power

import (
	"fmt"
	"io"

	"acesim/internal/des"
	"acesim/internal/stats"
	"acesim/internal/trace"
)

// Coefficients are the per-component energy coefficients (Table-VI
// style: one set per endpoint preset, overridable per scenario).
type Coefficients struct {
	// ComputePJPerCycle is the NPU dynamic compute energy per busy
	// core cycle (covers the whole SM array while a kernel runs).
	ComputePJPerCycle float64 `json:"compute_pj_per_cycle"`
	// HBMPJPerByte is charged per HBM byte moved by the communication
	// stack (reads via the comm-mem server, metered writes).
	HBMPJPerByte float64 `json:"hbm_pj_per_byte"`
	// ACEBusyW is the active draw of each ACE engine server (ALU and
	// the two SRAM ports) while serving.
	ACEBusyW float64 `json:"ace_busy_w"`
	// DMABusyW is the active draw of each NPU-AFI bus direction while
	// serving.
	DMABusyW float64 `json:"dma_busy_w"`
	// LinkPJPerBit is the wire transfer energy per bit crossing any
	// fabric link (every hop pays it).
	LinkPJPerBit float64 `json:"link_pj_per_bit"`
	// ForwardPJPerByte is the per-hop switching/forwarding energy
	// charged on non-injection hops (wire bytes minus injected bytes).
	ForwardPJPerByte float64 `json:"forward_pj_per_byte"`
	// Static leakage draws, integrated over the whole run.
	StaticNPUW  float64 `json:"static_npu_w"`
	StaticACEW  float64 `json:"static_ace_w"`
	StaticLinkW float64 `json:"static_link_w"`
}

// ComputeW returns the dynamic compute draw in watts while a kernel
// runs at the given core clock: pJ/cycle x cycles/s = pJ/cycle x
// GHz x 1e9 / 1e12 W.
func (c Coefficients) ComputeW(freqGHz float64) float64 {
	return c.ComputePJPerCycle * freqGHz * 1e-3
}

// HBMW returns the HBM draw in watts while the comm-mem server moves
// bytes at the given rate (GB/s x pJ/byte = 1e9 pJ/s = 1e-3 W each).
func (c Coefficients) HBMW(rateGBps float64) float64 {
	return c.HBMPJPerByte * rateGBps * 1e-3
}

// LinkPJPerByte returns the wire energy per byte (8 bits).
func (c Coefficients) LinkPJPerByte() float64 { return c.LinkPJPerBit * 8 }

// Config enables energy accounting on a system build.
type Config struct {
	// Window is the power-sampling window width; <= 0 uses
	// DefaultWindow. Totals are window-independent.
	Window des.Time
	Coeff  Coefficients
}

// DefaultWindow is the power-timeline sampling width used when a
// config does not set one (10 us of simulated time).
const DefaultWindow = 10 * des.Microsecond

// Usage is the lifetime meter snapshot energy is derived from. All
// durations and byte counts are integer sums over components, taken
// after the run (and after any hybrid fold), so two engines whose
// meters agree produce identical Usage and therefore identical joules.
type Usage struct {
	ComputeBusy des.Time // summed kernel busy time across nodes
	FreqGHz     float64  // core clock the busy cycles ran at
	HBMBytes    int64    // comm reads + metered writes across nodes
	ACEBusy     des.Time // ALU + SRAM port busy time across ACEs
	DMABusy     des.Time // bus TX + RX busy time across nodes
	WireBytes   int64    // bytes crossing any link (all hops)
	InjectedBts int64    // bytes entering the fabric (first hops)
	Nodes       int
	ACEs        int
	Links       int
	Makespan    des.Time
}

// Breakdown is the per-component energy split plus the derived power
// figures, all in SI units (joules, watts, seconds).
type Breakdown struct {
	ComputeJ float64 `json:"energy_compute_j"`
	HBMJ     float64 `json:"energy_hbm_j"`
	ACEJ     float64 `json:"energy_ace_j"`
	LinkJ    float64 `json:"energy_link_j"`
	StaticJ  float64 `json:"energy_static_j"`
	TotalJ   float64 `json:"energy_total_j"`
	AvgW     float64 `json:"avg_power_w"`
	PeakW    float64 `json:"peak_power_w"`
	// EDP is energy x makespan (joule-seconds); PerfPerWatt is
	// (1/makespan)/avg power (1/joules) — the assertable perf/watt.
	EDP         float64 `json:"energy_delay_product"`
	PerfPerWatt float64 `json:"perf_per_watt"`
}

// StaticW returns the constant leakage draw of a fabric with the given
// component counts.
func (c Coefficients) StaticW(nodes, aces, links int) float64 {
	return float64(nodes)*c.StaticNPUW + float64(aces)*c.StaticACEW + float64(links)*c.StaticLinkW
}

// Energy derives the full breakdown from a usage snapshot. PeakW is
// left zero — it comes from the Sampler, not the lifetime meters.
func (c Coefficients) Energy(u Usage) Breakdown {
	var b Breakdown
	// busy_ps x GHz x 1e-3 = cycles; x pJ/cycle x 1e-12 = J.
	b.ComputeJ = float64(u.ComputeBusy) * u.FreqGHz * 1e-3 * c.ComputePJPerCycle * 1e-12
	b.HBMJ = float64(u.HBMBytes) * c.HBMPJPerByte * 1e-12
	b.ACEJ = float64(u.ACEBusy)*1e-12*c.ACEBusyW + float64(u.DMABusy)*1e-12*c.DMABusyW
	fwd := u.WireBytes - u.InjectedBts
	if fwd < 0 {
		fwd = 0
	}
	b.LinkJ = float64(u.WireBytes)*c.LinkPJPerByte()*1e-12 + float64(fwd)*c.ForwardPJPerByte*1e-12
	sec := float64(u.Makespan) * 1e-12
	b.StaticJ = c.StaticW(u.Nodes, u.ACEs, u.Links) * sec
	b.TotalJ = b.ComputeJ + b.HBMJ + b.ACEJ + b.LinkJ + b.StaticJ
	if sec > 0 {
		b.AvgW = b.TotalJ / sec
		b.EDP = b.TotalJ * sec
		if b.AvgW > 0 {
			b.PerfPerWatt = 1 / (sec * b.AvgW)
		}
	}
	return b
}

// Sampler collects the windowed power timeline. The dynamic groups
// are integer-femtojoule traces charged by busy-interval
// observers; the static draw is a constant added at read time (it
// needs no events).
type Sampler struct {
	Window  des.Time
	Compute *stats.Trace // kernel execution
	HBM     *stats.Trace // comm-mem read service
	Fabric  *stats.Trace // links + DMA buses + ACE servers
	StaticW float64
}

// NewSampler returns a sampler with three enabled group traces on a
// shared window grid.
func NewSampler(window des.Time) *Sampler {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Sampler{
		Window:  window,
		Compute: stats.NewTrace(window),
		HBM:     stats.NewTrace(window),
		Fabric:  stats.NewTrace(window),
	}
}

// AbsorbFrom folds another sampler's group timelines into this one,
// scaled by times (hybrid shadow fold).
func (s *Sampler) AbsorbFrom(o *Sampler, times int64) {
	if s == nil || o == nil {
		return
	}
	s.Compute.AbsorbFrom(o.Compute, times)
	s.HBM.AbsorbFrom(o.HBM, times)
	s.Fabric.AbsorbFrom(o.Fabric, times)
}

// Windows returns the number of sampling windows covering a run of the
// given makespan (at least the number of recorded windows — static
// draw extends the timeline to the end of the run).
func (s *Sampler) Windows(makespan des.Time) int {
	if s == nil || s.Window <= 0 {
		return 0
	}
	n := int((makespan + s.Window - 1) / s.Window)
	for _, t := range []*stats.Trace{s.Compute, s.HBM, s.Fabric} {
		if t.Len() > n {
			n = t.Len()
		}
	}
	return n
}

// TotalW returns window b's total draw in watts, static included.
// Partial final windows are averaged over the full window width, which
// keeps the figure a pure function of the window's integer energy.
func (s *Sampler) TotalW(b int) float64 {
	return s.Compute.PowerW(b) + s.HBM.PowerW(b) + s.Fabric.PowerW(b) + s.StaticW
}

// PeakW returns the maximum windowed total draw over the run.
func (s *Sampler) PeakW(makespan des.Time) float64 {
	n := s.Windows(makespan)
	if n == 0 {
		return 0
	}
	var peak float64
	for b := 0; b < n; b++ {
		if w := s.TotalW(b); w > peak {
			peak = w
		}
	}
	return peak
}

// WriteCSV emits the power timeline, one row per window:
// time_us,compute_w,hbm_w,fabric_w,static_w,total_w.
func (s *Sampler) WriteCSV(w io.Writer, makespan des.Time) error {
	if s == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "time_us,compute_w,hbm_w,fabric_w,static_w,total_w"); err != nil {
		return err
	}
	for b, n := 0, s.Windows(makespan); b < n; b++ {
		ts := (des.Time(b) * s.Window).Micros()
		if _, err := fmt.Fprintf(w, "%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			ts, s.Compute.PowerW(b), s.HBM.PowerW(b), s.Fabric.PowerW(b), s.StaticW, s.TotalW(b)); err != nil {
			return err
		}
	}
	return nil
}

// EmitCounters merges the timeline into a Chrome-trace export as
// counter tracks ("power/compute", "power/hbm", "power/fabric",
// "power/static"), one sample per window boundary. No-op when either
// side is disabled.
func (s *Sampler) EmitCounters(tr *trace.Tracer, makespan des.Time) {
	if s == nil || !tr.Enabled() {
		return
	}
	groups := []struct {
		name string
		w    func(b int) float64
	}{
		{"power/compute", s.Compute.PowerW},
		{"power/hbm", s.HBM.PowerW},
		{"power/fabric", s.Fabric.PowerW},
		{"power/static", func(int) float64 { return s.StaticW }},
	}
	for _, g := range groups {
		id := tr.RegisterTrack(g.name, -1, trace.KindOther)
		for b, n := 0, s.Windows(makespan); b < n; b++ {
			tr.Count(id, "watts", int64(des.Time(b)*s.Window), g.w(b))
		}
	}
}
