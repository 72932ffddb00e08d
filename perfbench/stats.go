package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// tally counts attempted and failed operations: work units, HTTP
// submissions and correctness checks. A failed unit, a violated
// assertion, a non-2xx response (429 included) and a mismatched check
// each count once against the number attempted.
type tally struct {
	attempted int
	failed    int
	errs      []string
}

// op records one attempted operation; a non-empty failure marks it failed.
func (t *tally) op(failure string) {
	t.attempted++
	if failure != "" {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, failure)
		}
	}
}

// check records one correctness check that passes when ok holds.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.op("")
		return
	}
	t.op(fmt.Sprintf(format, args...))
}

// frac is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail is the highest percentile with at least ten samples beyond it.
type tail struct {
	Pct   float64 // the percentile reported (50 when too few samples)
	Value float64
	N     int // sample count
}

// nearestRank returns the p-th percentile of sorted samples by the
// nearest-rank rule, and the number of samples strictly beyond it.
func nearestRank(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	// The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// tailOf picks the highest candidate percentile that leaves at least ten
// samples beyond it. With fewer than twenty samples no candidate does,
// and the median is reported instead (Pct = 50).
func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		if v, beyond := nearestRank(s, p); beyond >= 10 {
			return tail{Pct: p, Value: v, N: len(s)}
		}
	}
	return tail{Pct: 50, Value: median(s), N: len(s)}
}

// heapSampler polls the live heap size while a timed region runs and
// keeps the peak. runtime/metrics reads it without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative heap allocation count in bytes.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds is the CPU time the process has used so far, user and
// system, all threads. Time the hypervisor steals from the machine is
// not in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// heapPoll is the sampling period: short against a unit's allocation
// bursts, long enough to stay out of the workers' way.
const heapPoll = 2 * time.Millisecond

// startHeapSampler begins polling every heapPoll until Stop.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: heapBytes()}
	go func() {
		defer close(h.done)
		tk := time.NewTicker(heapPoll)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tk.C:
				if b := heapBytes(); b > h.peak {
					h.peak = b
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	if b := heapBytes(); b > h.peak {
		h.peak = b
	}
	return float64(h.peak) / (1 << 20)
}
