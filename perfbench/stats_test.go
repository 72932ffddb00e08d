package main

import (
	"net/http"
	"testing"

	"acesim/internal/scenario"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailOf must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{200, 95, 190},
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10.5}, // too few for any tail: the median
		{1, 50, 1},
	} {
		got := tailOf(seq(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.N != c.n {
			t.Errorf("tailOf(%d samples) = %+v, want p%v = %v with N %d", c.n, got, c.pct, c.value, c.n)
		}
		if c.pct != 50 {
			if _, beyond := nearestRank(func() []float64 { s := seq(c.n); reverse(s); return s }(), c.pct); beyond < 10 {
				t.Errorf("%d samples: p%v leaves %d beyond, want at least 10", c.n, c.pct, beyond)
			}
		}
	}
	if got := tailOf(nil); got.N != 0 {
		t.Errorf("tailOf(nil) = %+v", got)
	}
}

func reverse(s []float64) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var tl tally
	tl.op("")
	tl.op("unit 3: boom")
	tl.check(true, "never")
	tl.check(false, "digest %s", "abc")
	if tl.attempted != 4 || tl.failed != 2 || tl.frac() != 0.5 {
		t.Fatalf("tally = %d attempted, %d failed, frac %v", tl.attempted, tl.failed, tl.frac())
	}
	if len(tl.errs) != 2 || tl.errs[1] != "digest abc" {
		t.Errorf("errs = %q", tl.errs)
	}
}

// A refused submission (429), a transport error and a hit rate that
// misses the generated warm share each count as failed operations.
func TestServeFailuresCountRefusalsAndMismatches(t *testing.T) {
	st := &serveSetup{
		mix:   serveMix{warm: make([]*scenario.Scenario, 1), cold: make([]*scenario.Scenario, 2), order: []int{0, 1, 2, 0}},
		units: 8,
		warm:  4,
	}
	sp := streamPass{
		subs: []submission{
			{status: http.StatusAccepted, submitNs: 1e6},
			{status: http.StatusTooManyRequests},
			{err: http.ErrHandlerTimeout},
			{status: http.StatusAccepted, submitNs: 2e6},
		},
		hits: 4, misses: 2, // 4/6 != the generated 4/8
	}
	var tl tally
	run := serveRun{rtt: map[bool][]float64{}}
	run.addPass(&tl, st, sp)
	if tl.attempted != 5 || tl.failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3 (429, transport error, hit rate)", tl.attempted, tl.failed)
	}
	if run.rejected != 1 {
		t.Errorf("rejected = %d, want 1", run.rejected)
	}
	if len(run.rtt[true]) != 2 || len(run.rtt[false]) != 0 {
		t.Errorf("latency samples %v: failed round trips must not count", run.rtt)
	}
	if tl.frac() != 0.6 {
		t.Errorf("failed_frac = %v, want 0.6", tl.frac())
	}
}
