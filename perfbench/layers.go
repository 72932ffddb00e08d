package main

import (
	"fmt"
	"runtime"
	"time"
)

// layerRun accumulates the traced passes of one run into the per-layer
// metrics.
type layerRun struct {
	passes int
	c      counts // one pass's counts; every pass must repeat them
	// Traced and untraced timed-pass walls, for the tracing overhead.
	walls, untraced []float64
	unitMs          []float64 // pooled over passes
	buildMs         []float64 // pooled over passes
	// Per-pass sums.
	lowerMs, buildTotalMs, idle, exportMs, breakdownMs, powerMs []float64
	// Per-run sums or per-pass values from outside the traced passes.
	expandMs, renderMs, allocMB []float64
	desRunNs                    int64
	runEvents                   uint64
	keyNs                       int64
	keys                        int
	self                        map[string]layerTime
}

const nsPerMs = 1e6

// addPass folds one traced pass: its spans, wall time and counts.
func (l *layerRun) addPass(t *tally, spans []span, wallNs int64, c counts) {
	if l.passes > 0 {
		t.check(c == l.c, "traced pass %d: layer counts differ from pass 0", l.passes)
	}
	l.passes++
	l.c = c
	roll := rollup(spans)
	var unitNs int64
	for _, s := range spans {
		switch s.Name {
		case "unit":
			unitNs += s.dur()
			l.unitMs = append(l.unitMs, float64(s.dur())/nsPerMs)
		case "system.Build":
			l.buildMs = append(l.buildMs, float64(s.dur())/nsPerMs)
		}
	}
	ms := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += roll[n].TotalNs
		}
		return float64(ns) / nsPerMs
	}
	l.lowerMs = append(l.lowerMs, ms("graph.FromModel", "graph.Pipeline"))
	l.buildTotalMs = append(l.buildTotalMs, ms("system.Build"))
	l.exportMs = append(l.exportMs, ms("trace.WriteChrome"))
	l.breakdownMs = append(l.breakdownMs, ms("trace.Breakdown"))
	l.powerMs = append(l.powerMs, ms("power.Report"))
	if wallNs > 0 {
		l.idle = append(l.idle, 1-float64(unitNs)/float64(workers*wallNs))
	}
	l.desRunNs += roll["des.Run"].TotalNs
	l.runEvents += c.RunEvents
	l.keyNs += roll["serve.UnitKey"].TotalNs
	l.keys += roll["serve.UnitKey"].Count
	if l.self == nil {
		l.self = map[string]layerTime{}
	}
	for n, lt := range roll {
		acc := l.self[n]
		acc.Count += lt.Count
		acc.TotalNs += lt.TotalNs
		acc.SelfNs += lt.SelfNs
		l.self[n] = acc
	}
}

// tracedPass drives every unit of p call by call with spans on, under a
// "pass" span, checks each unit's simulated result against want (the
// untraced metrics of the same unit) and folds the pass into lr. It
// returns the pass's wall time.
func tracedPass(rec *recorder, name string, p prepared, want [][]map[string]float64, lr *layerRun, t *tally) int64 {
	runtime.GC()
	first := len(rec.snapshot())
	t0 := time.Now()
	root := rec.begin(0, "pass", name)
	out, c, err := drivePass(rec, root, p.scs, p.units)
	rec.end(root)
	wallNs := time.Since(t0).Nanoseconds()
	if err != nil {
		t.op(fmt.Sprintf("traced pass: %v", err))
		return wallNs
	}
	for si := range out {
		for ui, dv := range out[si] {
			m := want[si][ui]
			t.check(m[dv.metric] == dv.value, "%s unit %d: traced %s = %v, untraced %v",
				p.scs[si].Name, ui, dv.metric, dv.value, m[dv.metric])
			if dv.powered {
				t.check(m["energy_total_j"] == dv.energyJ, "%s unit %d: traced energy_total_j = %v, untraced %v",
					p.scs[si].Name, ui, dv.energyJ, m["energy_total_j"])
			}
		}
	}
	lr.addPass(t, rec.snapshot()[first:], wallNs, c)
	return wallNs
}

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// report sets the per-layer metrics shared by every workload and the
// details behind them.
func (l *layerRun) report(rep *report) {
	c := l.c
	rep.set("des.events", "count", float64(c.Events))
	rep.set("des.ns_per_event", "ns", ratio(float64(l.desRunNs), float64(l.runEvents)))
	rep.set("resource.requests", "count", float64(c.Requests))
	rep.set("noc.wire_bytes", "bytes", float64(c.WireBytes))
	rep.set("noc.injected_bytes", "bytes", float64(c.InjectedBytes))
	rep.set("noc.link_util", "ratio", ratio(c.LinkBusyPs, c.LinkCapPs))
	rep.set("npu.kernels", "count", float64(c.Kernels))
	rep.set("npu.compute_busy_us", "sim_us", c.ComputeBusy.Micros())
	rep.set("core.ace_busy_us", "sim_us", c.ACEBusy.Micros())
	rep.set("collectives.issued", "count", float64(c.Issued))
	rep.set("collectives.hybrid_taken", "count", float64(c.HybridTaken))
	rep.set("collectives.shadow_events", "count", float64(c.ShadowEvents))
	rep.set("collectives.hybrid_engaged_frac", "ratio", ratio(float64(c.HybridEngaged), float64(c.HybridAsked)))
	rep.set("graph.ops", "count", float64(c.GraphOps))
	rep.set("graph.lower_ms", "ms", median(l.lowerMs))
	rep.set("system.build_ms_p50", "ms", median(l.buildMs))
	rep.set("system.build_ms_total", "ms", median(l.buildTotalMs))
	rep.set("scenario.expand_ms", "ms", median(l.expandMs))
	ut := tailOf(l.unitMs)
	rep.set("runner.unit_p50_ms", "ms", median(l.unitMs))
	rep.set("runner.unit_tail_ms", "ms", ut.Value)
	rep.set("runner.pool_idle_frac", "ratio", median(l.idle))
	rep.set("runner.alloc_mb", "MiB", median(l.allocMB))
	rep.set("runner.render_ms", "ms", median(l.renderMs))
	rep.set("trace.spans", "count", float64(c.TraceSpans))
	rep.set("trace.export_mb", "MiB", float64(c.ExportBytes)/(1<<20))
	rep.set("power.windows", "count", float64(c.PowerWindows))
	rep.set("serve.key_us", "us", ratio(float64(l.keyNs)/1e3, float64(l.keys)))
	tracedWall, untracedWall := median(l.walls), median(l.untraced)
	rep.set("bench.trace_overhead_frac", "ratio", ratio(tracedWall, untracedWall)-1)

	d := rep.detail
	d["runner.unit_tail"] = ut
	d["bases"] = map[string]any{
		"noc.link_util":                   fmt.Sprintf("link busy %.0f ps / link-time %.0f ps", c.LinkBusyPs, c.LinkCapPs),
		"collectives.hybrid_engaged_frac": fmt.Sprintf("%d engaged / %d units requesting hybrid or analytic", c.HybridEngaged, c.HybridAsked),
		"runner.pool_idle_frac":           fmt.Sprintf("1 - unit host time / (%d workers x traced pass wall), median of %d passes", workers, len(l.idle)),
		"des.ns_per_event":                fmt.Sprintf("%d ns of des.Run / %d events", l.desRunNs, l.runEvents),
		"serve.key_us":                    fmt.Sprintf("%d ns / %d serve.UnitKey calls", l.keyNs, l.keys),
		"bench.trace_overhead_frac":       fmt.Sprintf("traced pass %.4f s / untraced pass %.4f s - 1 (medians of %d and %d)", tracedWall, untracedWall, len(l.walls), len(l.untraced)),
	}
	d["units_per_traced_pass"] = c.Units
	d["traced_passes"] = l.passes
	if c.TraceSpans > 0 {
		d["trace.breakdown_ms"] = median(l.breakdownMs)
		d["trace.export_ms"] = median(l.exportMs)
	}
	if c.PowerWindows > 0 {
		d["power.report_ms"] = median(l.powerMs)
	}
	self := map[string]map[string]float64{}
	for n, lt := range l.self {
		self[n] = map[string]float64{
			"count_per_pass":    float64(lt.Count) / float64(l.passes),
			"total_ms_per_pass": float64(lt.TotalNs) / nsPerMs / float64(l.passes),
			"self_ms_per_pass":  float64(lt.SelfNs) / nsPerMs / float64(l.passes),
		}
	}
	d["self_time"] = self
}
