// Package stats provides lightweight measurement primitives for the
// simulator: byte meters and integer time-window traces. Traces back the
// compute/network utilization timelines of Fig 9b and Fig 10 in the
// paper and the windowed power timeline.
package stats

import (
	"math"

	"acesim/internal/des"
)

// Meter accumulates a byte count (memory reads, wire bytes, ...).
type Meter struct {
	Name  string
	total int64
	ops   int64
}

// Add records n more bytes.
func (m *Meter) Add(n int64) {
	m.total += n
	m.ops++
}

// Total returns the accumulated byte count.
func (m *Meter) Total() int64 { return m.total }

// Ops returns the number of Add calls.
func (m *Meter) Ops() int64 { return m.ops }

// Reset zeroes the meter.
func (m *Meter) Reset() { m.total, m.ops = 0, 0 }

// Rate reports the average rate in GB/s over the given duration.
func (m *Meter) Rate(d des.Time) float64 { return des.Rate(m.total, d) }

// Trace accumulates an integer quantity into fixed-width time windows:
// busy picoseconds for a utilization timeline (AddBusy), femtojoules for
// a power timeline (AddEnergy). Integer sums are order-independent, so
// two engines (or two worker counts) that record the same set of
// intervals land on byte-identical windows no matter the accumulation
// order, and the hybrid engine's mirror fold (multiply one node's
// windows by N) is exact.
type Trace struct {
	Window des.Time // window width; <= 0 disables the trace
	vals   []int64
}

// NewTrace returns a trace with the given window width.
func NewTrace(window des.Time) *Trace { return &Trace{Window: window} }

// Enabled reports whether the trace records anything.
func (t *Trace) Enabled() bool { return t != nil && t.Window > 0 }

// AddBusy records that a resource was busy over [start, end): every
// window gains its overlap in picoseconds. Safe to call on a nil or
// disabled trace.
func (t *Trace) AddBusy(start, end des.Time) { t.add(start, end, 0) }

// AddEnergy records energy drawn at a constant watts over [start, end).
// Each window gains round(watts x overlap_ps x 1000) femtojoules (1 W
// over 1 ps is 1 pJ), rounded once per window: a pure function of the
// interval and the window grid, never of ordering. Safe to call on a
// nil or disabled trace.
func (t *Trace) AddEnergy(start, end des.Time, watts float64) {
	if watts != 0 {
		t.add(start, end, watts)
	}
}

// add splits [start, end) over the windows it overlaps. watts 0 adds
// busy picoseconds, any other value femtojoules.
func (t *Trace) add(start, end des.Time, watts float64) {
	if !t.Enabled() || end <= start {
		return
	}
	first := int(start / t.Window)
	last := int((end - 1) / t.Window)
	if len(t.vals) <= last {
		t.vals = append(t.vals, make([]int64, last+1-len(t.vals))...)
	}
	for b := first; b <= last; b++ {
		lo := des.Time(b) * t.Window
		hi := lo + t.Window
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		if watts == 0 {
			t.vals[b] += int64(hi - lo)
		} else {
			t.vals[b] += int64(math.Round(watts * float64(hi-lo) * 1000))
		}
	}
}

// Len returns the number of windows recorded so far.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.vals)
}

// At returns window b's accumulated value: busy picoseconds or
// femtojoules, whichever the trace records.
func (t *Trace) At(b int) int64 {
	if t == nil || b < 0 || b >= len(t.vals) {
		return 0
	}
	return t.vals[b]
}

// Utilization returns window b's busy time as a fraction of capacity x
// window width. capacity is e.g. the number of links sharing the trace.
func (t *Trace) Utilization(b int, capacity float64) float64 {
	if !t.Enabled() || capacity <= 0 {
		return 0
	}
	return float64(t.At(b)) / (capacity * float64(t.Window))
}

// Mean returns the average utilization over windows [from, to).
func (t *Trace) Mean(from, to int, capacity float64) float64 {
	if !t.Enabled() || to <= from {
		return 0
	}
	var sum float64
	for b := from; b < to; b++ {
		sum += t.Utilization(b, capacity)
	}
	return sum / float64(to-from)
}

// PowerW returns window b's average power draw in watts. A partial
// final window is averaged over the full window width.
func (t *Trace) PowerW(b int) float64 {
	if !t.Enabled() {
		return 0
	}
	return float64(t.At(b)) / (float64(t.Window) * 1000)
}

// AbsorbFrom folds another trace's windows into this one elementwise,
// scaled by times. The hybrid engine uses it to merge a shadow
// co-simulation's timelines back into the primary system; the integer
// scaling keeps mirror-mode replication exact.
func (t *Trace) AbsorbFrom(o *Trace, times int64) {
	if !t.Enabled() || o == nil || times <= 0 {
		return
	}
	if len(t.vals) < len(o.vals) {
		t.vals = append(t.vals, make([]int64, len(o.vals)-len(t.vals))...)
	}
	for b, v := range o.vals {
		t.vals[b] += v * times
	}
}
