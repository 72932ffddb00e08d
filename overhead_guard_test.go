// Tracing overhead guard: with tracing disabled (nil Tracer), the
// instrumented hot paths must cost nothing. This test re-measures the
// BenchmarkFig4 workload and pins its event count and allocations
// against BENCH_2026-07-28.json, a frozen pin recorded before the trace
// layer existed; nothing writes that file any more. Any new
// allocation on the disabled path — a forgotten nil guard, an eager
// fmt.Sprintf for a track name, an emitter built unconditionally — shows
// up here as an allocs-per-run regression.
package acesim_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"acesim/internal/exper"
	"acesim/internal/trace"
)

// baselineReport mirrors just the fields the guard needs from the
// pin's acesim-bench/v1 JSON.
type baselineReport struct {
	Schema string `json:"schema"`
	Units  []struct {
		Name         string `json:"name"`
		Events       uint64 `json:"events"`
		AllocsPerRun uint64 `json:"allocs_per_run"`
	} `json:"units"`
}

func loadBaseline(t *testing.T) map[string]struct{ events, allocs uint64 } {
	t.Helper()
	raw, err := os.ReadFile("BENCH_2026-07-28.json")
	if err != nil {
		t.Fatalf("committed bench baseline missing: %v", err)
	}
	var rep baselineReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]struct{ events, allocs uint64 }, len(rep.Units))
	for _, u := range rep.Units {
		out[u.Name] = struct{ events, allocs uint64 }{u.Events, u.AllocsPerRun}
	}
	return out
}

// measureAllocs runs fn once GC-fenced and returns (mallocs, result of fn).
func measureAllocs(fn func() (uint64, error)) (allocs, events uint64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	events, err = fn()
	runtime.ReadMemStats(&ms1)
	return ms1.Mallocs - ms0.Mallocs, events, err
}

func TestTracingDisabledOverheadGuard(t *testing.T) {
	base := loadBaseline(t)
	gemm := exper.GEMMKernel(1000)
	emb := exper.EmbLookupKernel(10000)
	cases := []struct {
		unit   string
		kernel *exper.Fig4Kernel
	}{
		{"fig4/gemm1000-10MB", &gemm},
		{"fig4/emb10000-10MB", &emb},
	}
	for _, tc := range cases {
		want, ok := base[tc.unit]
		if !ok {
			t.Fatalf("baseline has no unit %q", tc.unit)
		}
		run := func() (uint64, error) {
			_, events, err := exper.Fig4MeasureStats(tc.kernel, 10<<20)
			return events, err
		}
		// Warm-up: populate lazy runtime state (map buckets, pool slabs)
		// so the measured run sees steady-state allocation behavior.
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		allocs, events, err := measureAllocs(run)
		if err != nil {
			t.Fatal(err)
		}
		if events != want.events {
			t.Errorf("%s: executed %d events, baseline %d — the simulation itself changed, not just tracing",
				tc.unit, events, want.events)
		}
		// The baseline predates the trace layer; with tracing off the
		// instrumentation must add zero allocations. 1% headroom absorbs
		// incidental runtime/GC bookkeeping noise only.
		limit := want.allocs + want.allocs/100
		if allocs > limit {
			t.Errorf("%s: %d allocs/run, baseline %d (limit %d) — tracing-disabled path is allocating",
				tc.unit, allocs, want.allocs, limit)
		}
		t.Logf("%s: %d allocs/run (baseline %d), %d events", tc.unit, allocs, want.allocs, events)
	}
}

// TestTracingEnabledRecords is the counterpart sanity check: the same
// run with a tracer attached must actually record spans on every layer
// (links, HBM, compute window, collective phases).
func TestTracingEnabledRecords(t *testing.T) {
	gemm := exper.GEMMKernel(1000)
	tr := trace.New()
	if _, _, err := exper.Fig4MeasureTrace(&gemm, 10<<20, tr); err != nil {
		t.Fatal(err)
	}
	if tr.NumSpans() == 0 || len(tr.Tracks()) == 0 {
		t.Fatalf("traced fig4 recorded %d spans on %d tracks", tr.NumSpans(), len(tr.Tracks()))
	}
	cats := make(map[string]int)
	for _, s := range tr.Spans() {
		cats[tr.Labels()[s.Label].Cat]++
	}
	for _, cat := range []string{trace.CatComm, trace.CatCompute, trace.CatLink, trace.CatHBM} {
		if cats[cat] == 0 {
			t.Errorf("no %q spans recorded (got %v)", cat, cats)
		}
	}
}
