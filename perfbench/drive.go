package main

import (
	"fmt"
	"sync"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/exper"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/scenario"
	"acesim/internal/serve"
	"acesim/internal/system"
	"acesim/internal/trace"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// workers is the pool size of every pass: the reference machine has two
// cores.
const workers = 2

// counts are one pass's per-layer work, read after each unit from the
// program's public accessors. The noc, npu and core figures are
// statistics of the simulated design: a change that only speeds up the
// simulator must leave them identical.
type counts struct {
	Units         int
	Events        uint64 // engine steps, hybrid shadow engines included
	RunEvents     uint64 // events of units whose engine run was timed on its own
	Requests      int64  // Σ Meter.Ops over each node's CommMem/BusTX/BusRX
	WireBytes     int64
	InjectedBytes int64
	LinkBusyPs    float64 // Σ link busy time
	LinkCapPs     float64 // Σ links × makespan, the base of link_util
	Kernels       int64
	ComputeBusy   des.Time
	ACEBusy       des.Time
	Issued        int // collectives issued, summed over nodes
	HybridTaken   int // fast-path collectives plus point-to-point transfers
	ShadowEvents  uint64
	HybridAsked   int // units requesting the hybrid or analytic engine
	HybridEngaged int
	GraphOps      int
	TraceSpans    int
	PowerWindows  int
	ExportBytes   int64 // Chrome trace bytes written
}

func (c *counts) add(o counts) {
	c.Units += o.Units
	c.Events += o.Events
	c.RunEvents += o.RunEvents
	c.Requests += o.Requests
	c.WireBytes += o.WireBytes
	c.InjectedBytes += o.InjectedBytes
	c.LinkBusyPs += o.LinkBusyPs
	c.LinkCapPs += o.LinkCapPs
	c.Kernels += o.Kernels
	c.ComputeBusy += o.ComputeBusy
	c.ACEBusy += o.ACEBusy
	c.Issued += o.Issued
	c.HybridTaken += o.HybridTaken
	c.ShadowEvents += o.ShadowEvents
	c.HybridAsked += o.HybridAsked
	c.HybridEngaged += o.HybridEngaged
	c.GraphOps += o.GraphOps
	c.TraceSpans += o.TraceSpans
	c.PowerWindows += o.PowerWindows
	c.ExportBytes += o.ExportBytes
}

// driven is the outcome of one unit run call by call.
type driven struct {
	// metric/value is the unit's primary simulated result, which must
	// equal the runner's value for the same unit.
	metric string
	value  float64
	// energyJ is the unit's total energy (powered units only).
	energyJ float64
	powered bool
	c       counts
	tr      *trace.Tracer
}

// specOf builds a unit's platform the way the scenario runner does for
// the generated workloads (which carry no overrides and no fault track).
func specOf(u scenario.Unit) (system.Spec, error) {
	if u.Overrides != nil || len(u.Events) > 0 {
		return system.Spec{}, fmt.Errorf("unit %d: overrides and event tracks are not driven", u.Index)
	}
	spec := system.NewSpec(u.Topo, u.Preset)
	if u.FastGranularity {
		exper.FastGranularity(&spec)
	}
	spec.Engine = u.Engine
	spec.Power = u.Power.Config(u.Preset)
	return spec, nil
}

func fig4Kernel(k scenario.Kernel) exper.Fig4Kernel {
	if k.GEMMN > 0 {
		return exper.GEMMKernel(k.GEMMN)
	}
	return exper.EmbLookupKernel(k.EmbBatch)
}

// driveUnit runs one unit through the program's layers one public call
// at a time, with a span around each call, all under a "unit" span keyed
// by key. A nil recorder turns the spans off.
func driveUnit(rec *recorder, parent int, key string, u scenario.Unit, traced bool) (out driven, err error) {
	root := rec.begin(parent, "unit", key)
	defer rec.end(root)
	out.c.Units = 1
	if err := rec.do(root, "serve.UnitKey", key, func() error {
		_, err := serve.UnitKey(u, traced, serve.SchemaVersion)
		return err
	}); err != nil {
		return out, err
	}
	if traced {
		out.tr = trace.New()
	}
	if u.Kind == scenario.KindMicrobench {
		k := fig4Kernel(u.Kernel)
		var over des.Time
		var events uint64
		if err := rec.do(root, "exper.Fig4MeasureTrace", key, func() (err error) {
			over, events, err = exper.Fig4MeasureTrace(&k, u.Bytes, out.tr)
			return err
		}); err != nil {
			return out, err
		}
		out.metric, out.value = "overlap_us", over.Micros()
		out.c.Events += events
		breakdown(rec, root, key, &out)
		return out, nil
	}
	spec, err := specOf(u)
	if err != nil {
		return out, err
	}
	spec.Tracer = out.tr
	var g *graph.Graph
	switch u.Kind {
	case scenario.KindCollective:
	case scenario.KindTraining:
		m, err := workload.ByName(u.Workload)
		if err != nil {
			return out, err
		}
		iters := training.DefaultConfig().Iterations
		if u.Iterations > 0 {
			iters = u.Iterations
		}
		// The same lowering training.Runner.Start performs.
		cfg := graph.ModelConfig{Iterations: iters, Overlap: spec.Schedule() == training.Overlap, DLRMOptimized: u.DLRMOptimized}
		if err := rec.do(root, "graph.FromModel", key, func() (err error) {
			g, err = graph.FromModel(m, cfg, u.Topo.N())
			return err
		}); err != nil {
			return out, err
		}
	case scenario.KindGraph:
		if u.Pipeline == nil {
			return out, fmt.Errorf("unit %d: graph files are not driven", u.Index)
		}
		p := u.Pipeline
		m, err := workload.ByName(p.Workload)
		if err != nil {
			return out, err
		}
		sched, err := graph.ParsePipeSchedule(p.Schedule)
		if err != nil {
			return out, err
		}
		cfg := graph.PipelineConfig{Model: m, Ranks: u.Topo.N(), Stages: p.Stages,
			Microbatches: p.Microbatches, Schedule: sched, Iterations: p.Iterations}
		if err := rec.do(root, "graph.Pipeline", key, func() (err error) {
			g, err = graph.Pipeline(cfg)
			return err
		}); err != nil {
			return out, err
		}
	default:
		return out, fmt.Errorf("unit %d: kind %s is not driven", u.Index, u.Kind)
	}
	if g != nil {
		out.c.GraphOps += g.Stats().Ops
	}
	var s *system.System
	if err := rec.do(root, "system.Build", key, func() (err error) {
		s, err = system.Build(spec)
		return err
	}); err != nil {
		return out, err
	}
	var colls []*collectives.Collective
	var run *graph.Run
	done := 0
	if u.Kind == scenario.KindCollective {
		plan := collectives.HierarchicalAllReduce(spec.Topo)
		if u.Collective == collectives.AllToAll {
			plan = collectives.DirectAllToAll(spec.Topo.N())
		}
		cs := collectives.Spec{Kind: u.Collective, Bytes: u.Bytes, Plan: plan, Name: u.Collective.String()}
		colls = make([]*collectives.Collective, s.RT.Nodes())
		for i := range colls {
			colls[i] = s.RT.Issue(noc.NodeID(i), cs, func() { done++ })
		}
	} else if err := rec.do(root, "graph.Executor.Start", key, func() (err error) {
		run, err = s.Executor().Start(g)
		return err
	}); err != nil {
		return out, err
	}
	_ = rec.do(root, "des.Run", key, func() error { s.Eng.Run(); return nil })
	_ = rec.do(root, "collectives.FoldHybrid", key, func() error { s.FoldHybrid(); return nil })
	switch u.Kind {
	case scenario.KindCollective:
		if done != s.RT.Nodes() {
			return out, fmt.Errorf("unit %d: collective finished on %d/%d nodes", u.Index, done, s.RT.Nodes())
		}
		var last des.Time
		for i, c := range colls {
			last = max(last, c.CompleteAt(noc.NodeID(i)))
		}
		out.metric, out.value = "duration_us", last.Micros()
		out.c.Issued += s.RT.Nodes()
	default:
		res, err := run.Result()
		if err != nil {
			return out, err
		}
		out.metric, out.value = "graph_span_us", res.Span.Micros()
		if u.Kind == scenario.KindTraining {
			out.metric, out.value = "iter_time_us", res.Ranks[0].FinishedAt.Micros()
		}
		for _, rk := range res.Ranks {
			out.c.Issued += rk.Issued
		}
	}
	readCounters(&out.c, s, u)
	breakdown(rec, root, key, &out)
	if spec.Power != nil {
		_ = rec.do(root, "power.Report", key, func() error {
			b, ok := s.PowerReport()
			out.energyJ, out.powered = b.TotalJ, ok
			out.c.PowerWindows += s.Sampler.Windows(s.Eng.Now())
			return nil
		})
	}
	return out, nil
}

// breakdown folds a traced unit's spans into the overlap breakdown.
func breakdown(rec *recorder, parent int, key string, out *driven) {
	if out.tr == nil {
		return
	}
	_ = rec.do(parent, "trace.Breakdown", key, func() error {
		out.c.TraceSpans += out.tr.Breakdown().Spans
		return nil
	})
}

// readCounters reads one finished system's layer counters.
func readCounters(c *counts, s *system.System, u scenario.Unit) {
	st := s.RT.HybridStats()
	ev := s.Eng.Steps() + st.ShadowSteps
	c.Events += ev
	c.RunEvents += ev
	for _, n := range s.Nodes {
		c.Requests += n.CommMem.Meter.Ops() + n.BusTX.Meter.Ops() + n.BusRX.Meter.Ops()
	}
	c.WireBytes += s.Net.TotalWireBytes()
	c.InjectedBytes += s.Net.InjectedBytes()
	c.LinkBusyPs += float64(s.Net.TotalLinkBusy())
	c.LinkCapPs += float64(s.Net.NumLinks()) * float64(s.Eng.Now())
	for _, cp := range s.Computes {
		c.Kernels += cp.Kernels()
		c.ComputeBusy += cp.BusyTime()
	}
	for _, a := range s.ACEs {
		if a != nil {
			c.ACEBusy += a.EngineBusy()
		}
	}
	c.HybridTaken += st.Collectives + st.P2P
	c.ShadowEvents += st.ShadowSteps
	if u.Engine != collectives.EngineDES {
		c.HybridAsked++
		if st.Engaged {
			c.HybridEngaged++
		}
	}
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// drivePass runs every unit of every scenario on the benchmark's own
// pool of workers, scenario by scenario as runner.Run would, and
// exports the traced scenarios' spans as a Chrome trace.
func drivePass(rec *recorder, parent int, scs []*scenario.Scenario, units [][]scenario.Unit) ([][]driven, counts, error) {
	out := make([][]driven, len(scs))
	var total counts
	for si, sc := range scs {
		traced := sc.TraceEnabled()
		sid := rec.begin(parent, "scenario", sc.Name)
		// One kernel-free baseline per payload, as the runner measures.
		seen := map[int64]bool{}
		for _, u := range units[si] {
			if u.Kind != scenario.KindMicrobench || seen[u.Bytes] {
				continue
			}
			seen[u.Bytes] = true
			var events uint64
			if err := rec.do(sid, "exper.Fig4MeasureStats", sc.Name+"/alone", func() (err error) {
				_, events, err = exper.Fig4MeasureStats(nil, u.Bytes)
				return err
			}); err != nil {
				rec.end(sid)
				return nil, total, err
			}
			total.Events += events
		}
		res := make([]driven, len(units[si]))
		errs := make([]error, len(units[si]))
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					res[i], errs[i] = driveUnit(rec, sid, fmt.Sprintf("%s/u%d", sc.Name, i), units[si][i], traced)
				}
			}()
		}
		for i := range units[si] {
			idx <- i
		}
		close(idx)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				rec.end(sid)
				return nil, total, fmt.Errorf("%s unit %d: %w", sc.Name, i, err)
			}
			total.add(res[i].c)
		}
		if traced {
			var exports []trace.Export
			for i, r := range res {
				exports = append(exports, trace.Export{Label: fmt.Sprintf("u%d", i), T: r.tr})
			}
			var cw countingWriter
			if err := rec.do(sid, "trace.WriteChrome", sc.Name, func() error {
				return trace.WriteChrome(&cw, exports)
			}); err != nil {
				rec.end(sid)
				return nil, total, err
			}
			total.ExportBytes += cw.n
			for i := range res {
				res[i].tr = nil // release the spans before the next scenario
			}
		}
		rec.end(sid)
		out[si] = res
	}
	return out, total, nil
}
