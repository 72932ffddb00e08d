// Package runner executes expanded scenarios on a bounded worker pool.
// Every work unit builds its own system.System, so units are
// embarrassingly parallel; results are written into a slice indexed by
// the unit's expansion position, making the output deterministic
// regardless of worker count or completion order.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/exper"
	"acesim/internal/fault"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/report"
	"acesim/internal/scenario"
	"acesim/internal/system"
	"acesim/internal/trace"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// Options tunes a scenario run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Trace forces the span collector on for every unit even when the
	// scenario has no enabled "trace" block (`acesim trace` sets it).
	Trace bool
}

// UnitResult couples one work unit with its measured metrics.
type UnitResult struct {
	Unit    scenario.Unit
	Metrics map[string]float64
	// Trace is the unit's span collector (nil when tracing was off).
	Trace *trace.Tracer
	// Power is the unit's energy report and windowed power timeline
	// (nil when the scenario has no enabled "power" block, or for
	// microbench units).
	Power *exper.PowerReport
	// Hybrid reports the fast path's engagement and refusal reasons
	// (zero-valued for microbench units, which bypass the runtime).
	Hybrid collectives.HybridStats
	// Util is the unit's utilization timeline (nil unless the scenario
	// has an enabled "utilization" block and the unit is training).
	Util *Utilization
}

// Utilization is a training unit's timeline in 1 us buckets: the
// fraction of every link busy and node 0's compute occupancy (Fig 10).
type Utilization struct {
	Net, Compute []float64
}

// AssertionOutcome records how one assertion fared against the results.
type AssertionOutcome struct {
	Assertion scenario.Assertion
	// Matched counts the units the assertion applied to.
	Matched int
	// Violations lists one message per violating unit (or a single
	// "matched no units" entry).
	Violations []string
}

// OK reports whether the assertion passed.
func (o AssertionOutcome) OK() bool { return len(o.Violations) == 0 }

// Results is the deterministic outcome of one scenario run: units in
// expansion order plus one outcome per assertion.
type Results struct {
	Name       string
	Units      []UnitResult
	Assertions []AssertionOutcome
	// Total is the expanded unit count. It equals len(Units) except on
	// a canceled run, where Units holds only the completed subset.
	Total int
	// Canceled reports that the run's context was canceled before every
	// unit completed: Units holds the units finished before the cancel
	// (still in expansion order) and no assertions were evaluated.
	Canceled bool
	// Relative is the scenario's relative block (one table column each).
	Relative []scenario.Relative
}

// Run expands the scenario and executes every unit on the worker pool.
// It fails on the first unit error; assertion violations do not fail
// the run — inspect Results.Failures.
func Run(sc *scenario.Scenario, opts Options) (*Results, error) {
	return RunContext(context.Background(), sc, opts)
}

// RunContext is Run with cancellation: when ctx is canceled mid-run the
// pool stops dispatching new units, in-flight units drain to completion
// (a work unit is one indivisible simulation), and the partial Results
// — every completed unit, in expansion order — are returned alongside
// ctx.Err(), so callers can flush completed work instead of discarding
// it. An uncancelled context leaves the run's behavior and output
// byte-identical to Run.
func RunContext(ctx context.Context, sc *scenario.Scenario, opts Options) (*Results, error) {
	units, err := sc.Expand()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	alone, err := aloneBaselines(units)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	traced := opts.Trace || sc.TraceEnabled()
	results := make([]UnitResult, len(units))
	errs := make([]error, len(units))
	started := make([]bool, len(units))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// A cancel between dispatch and pickup: drain the
				// channel without starting more simulations.
				if ctx.Err() != nil {
					continue
				}
				started[i] = true
				// One tracer per unit, owned by this worker until the
				// run completes; results are merged in unit order, so
				// the worker count never changes the output.
				results[i], errs[i] = runOne(units[i], alone, traced)
			}
		}()
	}
dispatch:
	for i := range units {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if ctxErr := ctx.Err(); ctxErr != nil {
		res := &Results{Name: sc.Name, Total: len(units), Canceled: true, Relative: sc.Relative}
		for i := range units {
			if started[i] && errs[i] == nil {
				res.Units = append(res.Units, results[i])
			}
		}
		return res, ctxErr
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %s: unit %d (%s): %w", sc.Name, i, describe(units[i]), err)
		}
	}
	res := &Results{Name: sc.Name, Units: results, Total: len(units), Relative: sc.Relative}
	AddRelative(sc.Relative, results)
	res.Assertions = Evaluate(sc.Assertions, results)
	return res, nil
}

// runOne executes one unit with its own span collector and folds the
// trace and power metrics into the result — the shared per-unit body of
// the pool workers and the exported RunOne.
func runOne(u scenario.Unit, alone map[int64]float64, traced bool) (UnitResult, error) {
	var tr *trace.Tracer
	if traced {
		tr = trace.New()
	}
	m, aux, err := runUnit(u, alone, tr)
	if err != nil {
		return UnitResult{Unit: u}, err
	}
	if tr != nil {
		addTraceMetrics(m, tr)
	}
	if aux.pr != nil {
		addPowerMetrics(m, aux.pr)
		// Merge the power timeline into the unit's trace as counter
		// tracks (no-op when untraced).
		aux.pr.Sampler.EmitCounters(tr, aux.pr.Makespan)
	}
	return UnitResult{Unit: u, Metrics: m, Trace: tr, Power: aux.pr, Hybrid: aux.hyb, Util: aux.util}, nil
}

// RunOne executes a single expanded work unit on a freshly built
// system, independent of any scenario run — the serving layer uses it
// to execute (and cache) units from many submissions on one shared
// pool. traced forces the span collector on, folding the trace_*
// metrics into the result the same way a traced scenario run does. A
// microbench unit measures its kernel-free baseline inline (scenario
// runs amortize one baseline per payload; a lone unit pays for its
// own — the measurement is deterministic, so the metrics are identical).
func RunOne(u scenario.Unit, traced bool) (UnitResult, error) {
	var alone map[int64]float64
	if u.Kind == scenario.KindMicrobench {
		var err error
		if alone, err = aloneBaselines([]scenario.Unit{u}); err != nil {
			return UnitResult{Unit: u}, err
		}
	}
	return runOne(u, alone, traced)
}

// AddRelative sets the relative metrics (scenario.Relative) on the units
// with a reference and a nonzero metric. Run calls it once the pool has
// drained, so the values do not depend on the worker count; the serving
// layer calls it on copies of cached metrics before evaluating
// assertions.
func AddRelative(rel []scenario.Relative, units []UnitResult) {
	for _, r := range rel {
		// A unit's point on every expansion axis but the selected one.
		key := func(u scenario.Unit) string {
			job, preset, over := any(u.Job), any(u.Preset), any(u.OverridePoint)
			switch {
			case r.Job != nil:
				job = nil
			case r.Overrides != nil:
				over = nil
			default:
				preset = nil
			}
			return fmt.Sprintf("%v|%v|%v|%v|%d|%s|%v", job, preset, over, u.Topo.Dims, u.Bytes, u.Workload, u.Kernel)
		}
		// The smallest reference value per point gives the smallest
		// ratio: division by a positive value is monotone.
		best := map[string]float64{}
		for _, ur := range units {
			u := ur.Unit
			v, ok := ur.Metrics[r.Metric]
			isRef := r.Job != nil && u.Job == *r.Job || r.Overrides != nil && u.OverridePoint == *r.Overrides ||
				slices.Contains(r.Presets, u.Preset.String())
			if b, seen := best[key(u)]; ok && isRef && (!seen || v < b) {
				best[key(u)] = v
			}
		}
		for _, ur := range units {
			v, ok := ur.Metrics[r.Metric]
			if ref, found := best[key(ur.Unit)]; ok && found && v != 0 {
				ur.Metrics[r.Name] = ref / v
			}
		}
	}
}

// Evaluate checks assertions against a set of unit results, one outcome
// per assertion in order. Run uses it after a complete pass; the
// serving layer evaluates once all of a submission's units have landed.
func Evaluate(asserts []scenario.Assertion, units []UnitResult) []AssertionOutcome {
	var out []AssertionOutcome
	for _, a := range asserts {
		out = append(out, check(a, units))
	}
	return out
}

// HybridWarnings returns one line per unit whose requested fast engine
// fell back to full DES, naming the refusal reasons (sorted). The CLI
// prints them on stderr under every command, so the fallback is never
// silent.
func (r *Results) HybridWarnings() []string {
	var out []string
	for _, ur := range r.Units {
		if ur.Unit.Engine == collectives.EngineDES || ur.Hybrid.Engaged || len(ur.Hybrid.Blocked) == 0 {
			continue
		}
		reasons := make([]string, 0, len(ur.Hybrid.Blocked))
		for k := range ur.Hybrid.Blocked {
			reasons = append(reasons, k)
		}
		sort.Strings(reasons)
		out = append(out, fmt.Sprintf("unit %d (%s): %s engine fell back to full DES: %s",
			ur.Unit.Index, describe(ur.Unit), ur.Unit.Engine, strings.Join(reasons, ", ")))
	}
	return out
}

// Failures lists every assertion violation across the run.
func (r *Results) Failures() []string {
	var out []string
	for _, o := range r.Assertions {
		for _, v := range o.Violations {
			out = append(out, fmt.Sprintf("%s: %s", o.Assertion, v))
		}
	}
	return out
}

// describe labels a unit for error messages, trace and power tables.
func describe(u scenario.Unit) string {
	switch u.Kind {
	case scenario.KindCollective:
		return fmt.Sprintf("%s %s %gMB", point(u), u.Collective, payloadMB(u.Bytes))
	case scenario.KindTraining:
		return fmt.Sprintf("%s %s", point(u), workloadLabel(u))
	case scenario.KindMicrobench:
		return fmt.Sprintf("%s ar=%gMB", u.Kernel.KernelName(), payloadMB(u.Bytes))
	case scenario.KindMultiJob:
		return fmt.Sprintf("%s multijob[%d]", point(u), len(u.SubJobs))
	case scenario.KindGraph:
		return fmt.Sprintf("%s graph %s", point(u), graphLabel(u))
	}
	return string(u.Kind)
}

// point labels a unit's platform point: topology and preset, then the
// override point when the platform sweeps one.
func point(u scenario.Unit) string {
	if u.Overrides == nil {
		return fmt.Sprintf("%s %s", u.Topo, u.Preset)
	}
	return fmt.Sprintf("%s %s [%s]", u.Topo, u.Preset, u.Overrides)
}

// graphLabel names a graph unit's source for tables and errors. The
// pipe<stages>x<replicas> notation matches graph.Pipeline's graph
// naming; microbatches get their own mb marker so the two cannot be
// confused.
func graphLabel(u scenario.Unit) string {
	if u.GraphFile != "" {
		return filepath.Base(u.GraphFile)
	}
	p := u.Pipeline
	sched, _ := graph.ParsePipeSchedule(p.Schedule)
	return fmt.Sprintf("%s/pipe%dx%d/mb%d/%s",
		p.Workload, p.Stages, u.Topo.N()/p.Stages, p.Microbatches, sched)
}

// workloadLabel names a training unit's workload, marking the optimized
// DLRM loop.
func workloadLabel(u scenario.Unit) string {
	if u.DLRMOptimized {
		return u.Workload + " (optimized)"
	}
	return u.Workload
}

// payloadMB converts a payload to MB without truncating sub-MB sweeps.
func payloadMB(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// aloneBaselines pre-measures the kernel-free microbench baseline once
// per distinct payload; every kernel unit of that payload reuses it
// instead of re-running the identical deterministic simulation.
func aloneBaselines(units []scenario.Unit) (map[int64]float64, error) {
	var alone map[int64]float64
	for _, u := range units {
		if u.Kind != scenario.KindMicrobench {
			continue
		}
		if _, ok := alone[u.Bytes]; ok {
			continue
		}
		t, _, err := exper.Fig4MeasureStats(nil, u.Bytes)
		if err != nil {
			return nil, fmt.Errorf("microbench baseline %gMB: %w", payloadMB(u.Bytes), err)
		}
		if alone == nil {
			alone = map[int64]float64{}
		}
		alone[u.Bytes] = float64(t)
	}
	return alone, nil
}

// buildSpec materializes the platform for a collective or training unit.
func buildSpec(u scenario.Unit) system.Spec {
	spec := system.NewSpec(u.Topo, u.Preset)
	u.Overrides.Apply(&spec)
	if u.FastGranularity {
		exper.FastGranularity(&spec)
	}
	if len(u.Events) > 0 {
		spec.Faults = &fault.Track{Events: u.Events, Recovery: u.Recovery}
	}
	spec.Engine = u.Engine
	spec.Power = u.Power.Config(u.Preset)
	if u.Utilization {
		spec.TraceBucket = des.Microsecond
	}
	return spec
}

// addTraceMetrics folds the unit's trace into the assertable trace_* /
// overlap_* metrics (scenario.TraceMetrics).
func addTraceMetrics(m map[string]float64, tr *trace.Tracer) {
	const psPerUs = 1e6
	bd := tr.Breakdown()
	m["trace_comm_us"] = float64(bd.CommTotal) / psPerUs
	m["trace_exposed_us"] = float64(bd.CommExposed) / psPerUs
	m["trace_overlapped_us"] = float64(bd.CommOverlapped) / psPerUs
	m["trace_compute_us"] = float64(bd.ComputeBusy) / psPerUs
	m["overlap_frac"] = bd.OverlapFrac
	m["trace_link_util"] = bd.LinkUtil
	m["trace_hbm_util"] = bd.HBMUtil
	m["trace_spans"] = float64(bd.Spans)
}

// addPowerMetrics folds the unit's energy report into the assertable
// energy_* / *_power_w metrics (scenario.PowerMetrics).
func addPowerMetrics(m map[string]float64, pr *exper.PowerReport) {
	b := pr.Breakdown
	m["energy_total_j"] = b.TotalJ
	m["energy_compute_j"] = b.ComputeJ
	m["energy_hbm_j"] = b.HBMJ
	m["energy_ace_j"] = b.ACEJ
	m["energy_link_j"] = b.LinkJ
	m["energy_static_j"] = b.StaticJ
	m["avg_power_w"] = b.AvgW
	m["peak_power_w"] = b.PeakW
	m["energy_delay_product"] = b.EDP
	m["perf_per_watt"] = b.PerfPerWatt
}

// tracedSpec is buildSpec with the unit's span collector attached.
func tracedSpec(u scenario.Unit, tr *trace.Tracer) system.Spec {
	spec := buildSpec(u)
	spec.Tracer = tr
	return spec
}

// runUnit executes one work unit and, when the unit carries an event
// track, layers the fault_* metrics on top of the kind metrics: the
// recovery counters from the faulted run, plus fault_slowdown measured
// against a fault-free twin of the same unit (multijob units skip the
// twin — their per-job "<name>_slowdown" baselines already strip the
// track).
func runUnit(u scenario.Unit, alone map[int64]float64, tr *trace.Tracer) (map[string]float64, unitAux, error) {
	m, aux, err := execUnit(u, alone, tr)
	if err != nil || len(u.Events) == 0 {
		return m, aux, err
	}
	rec := aux.rec
	m["fault_events"] = float64(len(u.Events))
	m["fault_drops"] = float64(rec.Drops)
	m["fault_retries"] = float64(rec.Retries)
	m["fault_parked"] = float64(rec.Parked)
	m["fault_recovery_us"] = rec.RecoveryTime().Micros()
	primary := map[scenario.JobKind]string{
		scenario.KindCollective: "duration_us",
		scenario.KindTraining:   "iter_time_us",
		scenario.KindGraph:      "graph_span_us",
	}[u.Kind]
	if primary == "" {
		return m, aux, nil
	}
	// The twin exists only for its primary duration metric; don't pay
	// for a second energy accounting pass.
	clean := u
	clean.Events, clean.Recovery, clean.Power, clean.Utilization = nil, nil, nil, false
	cm, _, err := execUnit(clean, alone, nil)
	if err != nil {
		return nil, aux, fmt.Errorf("fault-free twin: %w", err)
	}
	if cm[primary] > 0 {
		m["fault_slowdown"] = m[primary] / cm[primary]
	}
	return m, aux, nil
}

// unitAux bundles the side reports of one unit execution: fault
// recovery, energy accounting, fast-path engagement and the utilization
// timeline.
type unitAux struct {
	rec  collectives.RecoveryStats
	pr   *exper.PowerReport
	hyb  collectives.HybridStats
	util *Utilization
}

// execUnit runs one work unit on a freshly built system. alone carries
// the pre-measured microbench baselines keyed by payload (read-only
// across workers). tr, when non-nil, collects the unit's spans. The
// returned recovery stats are zero-valued on fault-free runs.
func execUnit(u scenario.Unit, alone map[int64]float64, tr *trace.Tracer) (map[string]float64, unitAux, error) {
	var none unitAux
	switch u.Kind {
	case scenario.KindCollective:
		res, err := exper.RunCollective(tracedSpec(u, tr), u.Collective, u.Bytes)
		if err != nil {
			return nil, none, err
		}
		return map[string]float64{
			"duration_us":   res.Duration.Micros(),
			"eff_gbps_node": res.EffGBpsNode,
			"reads_node":    float64(res.ReadsNode),
			"writes_node":   float64(res.WritesNode),
			"wire_bytes":    float64(res.WireBytes),
		}, unitAux{rec: res.Recovery, pr: res.Power, hyb: res.Hybrid}, nil
	case scenario.KindTraining:
		m, err := workload.ByName(u.Workload)
		if err != nil {
			return nil, none, err
		}
		tc := training.DefaultConfig()
		if u.Iterations > 0 {
			tc.Iterations = u.Iterations
		}
		tc.DLRMOptimized = u.DLRMOptimized
		res, s, err := exper.RunTraining(tracedSpec(u, tr), m, tc)
		if err != nil {
			return nil, none, err
		}
		frac := 0.0
		if res.IterTime > 0 {
			frac = float64(res.ExposedComm) / float64(res.IterTime)
		}
		out := map[string]float64{
			"iter_time_us":      res.IterTime.Micros(),
			"compute_us":        res.TotalCompute.Micros(),
			"exposed_us":        res.ExposedComm.Micros(),
			"exposed_comm_frac": frac,
			"collectives":       float64(res.Collectives),
		}
		aux := unitAux{rec: res.Recovery, pr: res.Power, hyb: res.Hybrid}
		if u.Utilization {
			aux.util = addUtilization(out, res, s)
		}
		return out, aux, nil
	case scenario.KindMicrobench:
		var k exper.Fig4Kernel
		if u.Kernel.GEMMN > 0 {
			k = exper.GEMMKernel(u.Kernel.GEMMN)
		} else {
			k = exper.EmbLookupKernel(u.Kernel.EmbBatch)
		}
		base, ok := alone[u.Bytes]
		if !ok {
			return nil, none, fmt.Errorf("no baseline measured for %gMB", payloadMB(u.Bytes))
		}
		over, _, err := exper.Fig4MeasureTrace(&k, u.Bytes, tr)
		if err != nil {
			return nil, none, err
		}
		return map[string]float64{
			"alone_us":   des.Time(base).Micros(),
			"overlap_us": over.Micros(),
			"slowdown":   float64(over) / base,
		}, none, nil
	case scenario.KindMultiJob:
		return execMultiJob(u, tr)
	case scenario.KindGraph:
		return execGraph(u, tr)
	}
	return nil, none, fmt.Errorf("unknown unit kind %q", u.Kind)
}

// addUtilization folds a training unit's 1 us utilization buckets into
// its metrics and returns the timeline. net_util and compute_util are
// the Fig 10 means of link and node-0 compute utilization over the first
// ⌊iter/bucket⌋+1 buckets. On ACE units ace_util_fwd and ace_util_bwd are
// the Fig 9b split: the fraction of forward and backward pass time
// during which node 0's engine has at least one chunk assigned.
func addUtilization(m map[string]float64, res exper.TrainResult, s *system.System) *Utilization {
	bucket := s.Spec.TraceBucket
	buckets := int(res.IterTime/bucket) + 1
	tl := &Utilization{}
	links := float64(s.Net.NumLinks())
	for b := 0; b < buckets; b++ {
		tl.Net = append(tl.Net, s.LinkUtil.Utilization(b, links))
		tl.Compute = append(tl.Compute, s.ComputeUtil[0].Utilization(b, 1))
	}
	m["net_util"] = mean(tl.Net)
	m["compute_util"] = mean(tl.Compute)
	if len(s.ACEs) == 0 {
		return tl
	}
	s.ACEs[0].FlushBusy()
	util := func(ws []training.Window) float64 {
		var busy, total float64
		for _, w := range ws {
			from := int(w.Start / bucket)
			to := int(w.End/bucket) + 1
			busy += s.ACEUtil[0].Mean(from, to, 1) * float64(to-from)
			total += float64(to - from)
		}
		if total == 0 {
			return 0
		}
		return busy / total
	}
	m["ace_util_fwd"] = util(res.FwdWindows)
	m["ace_util_bwd"] = util(res.BwdWindows)
	return tl
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// execGraph resolves the unit's graph — a JSON file or a pipeline
// synthesis — and runs it on a freshly built platform.
func execGraph(u scenario.Unit, tr *trace.Tracer) (map[string]float64, unitAux, error) {
	var none unitAux
	var g *graph.Graph
	var err error
	if u.GraphFile != "" {
		g, err = graph.Load(u.GraphFile)
		if err != nil {
			return nil, none, err
		}
		if g.Ranks != u.Topo.N() {
			return nil, none, fmt.Errorf("graph %s targets %d ranks, torus %s has %d", u.GraphFile, g.Ranks, u.Topo, u.Topo.N())
		}
	} else {
		p := u.Pipeline
		m, err := workload.ByName(p.Workload)
		if err != nil {
			return nil, none, err
		}
		sched, err := graph.ParsePipeSchedule(p.Schedule)
		if err != nil {
			return nil, none, err
		}
		g, err = graph.Pipeline(graph.PipelineConfig{
			Model:        m,
			Ranks:        u.Topo.N(),
			Stages:       p.Stages,
			Microbatches: p.Microbatches,
			Schedule:     sched,
			Iterations:   p.Iterations,
		})
		if err != nil {
			return nil, none, err
		}
	}
	res, err := exper.RunGraph(tracedSpec(u, tr), g)
	if err != nil {
		return nil, none, err
	}
	frac := 0.0
	if res.Span > 0 {
		frac = float64(res.Exposed) / float64(res.Span)
	}
	return map[string]float64{
		"graph_span_us":      res.Span.Micros(),
		"graph_compute_us":   res.Compute.Micros(),
		"graph_exposed_us":   res.Exposed.Micros(),
		"graph_exposed_frac": frac,
	}, unitAux{rec: res.Recovery, pr: res.Power, hyb: res.Hybrid}, nil
}

// execMultiJob co-runs the unit's sub-jobs via exper.Interference and
// flattens the per-job outcomes into metrics: the assertable aggregates
// plus "<name>_solo_us" / "<name>_co_us" / "<name>_slowdown" per sub-job.
func execMultiJob(u scenario.Unit, tr *trace.Tracer) (map[string]float64, unitAux, error) {
	var none unitAux
	spec := tracedSpec(u, tr)
	arb, err := collectives.ParseArbitration(u.Arbitration)
	if err != nil {
		return nil, none, err
	}
	spec.Coll.Arb = arb
	jobs := make([]exper.InterferenceJob, len(u.SubJobs))
	for i, sj := range u.SubJobs {
		job := exper.InterferenceJob{Name: sj.Name, StartAt: des.Micros(sj.StartAtUs)}
		if sj.Placement != "" && sj.Placement != "shared" {
			part, err := noc.ParsePartition(u.Topo, sj.Placement)
			if err != nil {
				return nil, none, fmt.Errorf("sub-job %s: %w", sj.Name, err)
			}
			job.Part = &part
		}
		if sj.IsTraining() {
			m, err := workload.ByName(sj.Workload)
			if err != nil {
				return nil, none, fmt.Errorf("sub-job %s: %w", sj.Name, err)
			}
			job.Model = m
			// Only the explicit override; exper defaults the rest.
			job.Train.Iterations = sj.Iterations
		} else {
			kind, err := scenario.ParseCollective(sj.Collective)
			if err != nil {
				return nil, none, fmt.Errorf("sub-job %s: %w", sj.Name, err)
			}
			job.Stream = exper.StreamSpec{Kind: kind, Bytes: sj.StreamBytes(), Count: sj.Repeat}
		}
		jobs[i] = job
	}
	res, err := exper.Interference(spec, jobs)
	if err != nil {
		return nil, none, err
	}
	out := map[string]float64{
		"job_slowdown_max": res.MaxSlowdown(),
		"job_slowdown_min": res.MinSlowdown(),
	}
	for _, j := range res.Jobs {
		out[j.Name+"_solo_us"] = j.Solo.Micros()
		out[j.Name+"_co_us"] = j.Co.Micros()
		out[j.Name+"_slowdown"] = j.Slowdown
	}
	return out, unitAux{rec: res.Recovery, pr: res.Power, hyb: res.Hybrid}, nil
}

// check evaluates one assertion against all matching units.
func check(a scenario.Assertion, units []UnitResult) AssertionOutcome {
	out := AssertionOutcome{Assertion: a}
	sel := a.Selector()
	for _, ur := range units {
		u := ur.Unit
		v, ok := ur.Metrics[a.Metric]
		if !ok || !sel(u) {
			continue
		}
		out.Matched++
		if !a.Holds(v) {
			out.Violations = append(out.Violations,
				fmt.Sprintf("unit %d (%s): %s = %g", u.Index, describe(u), a.Metric, v))
		}
	}
	if out.Matched == 0 {
		out.Violations = append(out.Violations, "matched no units")
	}
	return out
}

// Tables renders the results as one aligned table per job kind present
// (in expansion order), plus an assertion table when the scenario has
// assertions.
func (r *Results) Tables() []*report.Table {
	var tabs []*report.Table
	// Platform-point columns lead every platform table: torus and
	// preset, plus the override point when the run sweeps one.
	over := false
	for _, ur := range r.Units {
		over = over || ur.Unit.Overrides != nil
	}
	cols := func(rest ...string) []string {
		h := []string{"torus", "preset"}
		if over {
			h = append(h, "overrides")
		}
		return append(h, rest...)
	}
	cells := func(u scenario.Unit, rest ...any) []any {
		c := []any{u.Topo.String(), u.Preset.String()}
		if over {
			c = append(c, u.Overrides.String())
		}
		return append(c, rest...)
	}
	// The utilization metrics, then each relative entry, add a column
	// to their kind's table; a unit without the metric (a non-ACE unit's
	// ACE split, a unit without a reference) shows "-".
	extra := map[scenario.JobKind][]string{}
	if slices.ContainsFunc(r.Units, func(ur UnitResult) bool { return ur.Util != nil }) {
		extra[scenario.KindTraining] = []string{"net_util", "compute_util"}
		if slices.ContainsFunc(r.Units, func(ur UnitResult) bool { _, ok := ur.Metrics["ace_util_fwd"]; return ok }) {
			extra[scenario.KindTraining] = append(extra[scenario.KindTraining], "ace_util_fwd", "ace_util_bwd")
		}
	}
	for _, rel := range r.Relative {
		k := scenario.Metrics[rel.Metric]
		extra[k] = append(extra[k], rel.Name)
	}
	byKind := map[scenario.JobKind]*report.Table{}
	get := func(k scenario.JobKind) *report.Table {
		if t, ok := byKind[k]; ok {
			return t
		}
		var t *report.Table
		switch k {
		case scenario.KindCollective:
			t = report.New(r.Name+": collectives",
				cols("collective", "MB", "duration us", "GB/s/node", "reads/node", "writes/node")...)
		case scenario.KindTraining:
			t = report.New(r.Name+": training (per node)",
				cols("workload", "compute us", "exposed us", "iter us", "exposed frac")...)
		case scenario.KindMicrobench:
			t = report.New(r.Name+": microbench (8 NPUs, 150 GB/s switch)",
				"kernel", "AR MB", "alone us", "overlapped us", "slowdown")
		case scenario.KindMultiJob:
			t = report.New(r.Name+": multijob (per-job slowdown vs solo)",
				cols("job", "placement", "kind", "solo us", "co-run us", "slowdown")...)
		case scenario.KindGraph:
			t = report.New(r.Name+": graphs (span / busiest-rank compute)",
				cols("graph", "span us", "compute us", "exposed us", "exposed frac")...)
		}
		t.Headers = append(t.Headers, extra[k]...)
		byKind[k] = t
		tabs = append(tabs, t)
		return t
	}
	add := func(k scenario.JobKind, m map[string]float64, row ...any) {
		for _, name := range extra[k] {
			if v, ok := m[name]; ok {
				row = append(row, v)
			} else {
				row = append(row, "-")
			}
		}
		get(k).Add(row...)
	}
	for _, ur := range r.Units {
		u, m := ur.Unit, ur.Metrics
		switch u.Kind {
		case scenario.KindCollective:
			add(u.Kind, m, cells(u, u.Collective.String(), payloadMB(u.Bytes),
				m["duration_us"], m["eff_gbps_node"], int64(m["reads_node"]), int64(m["writes_node"]))...)
		case scenario.KindTraining:
			add(u.Kind, m, cells(u, workloadLabel(u),
				m["compute_us"], m["exposed_us"], m["iter_time_us"], m["exposed_comm_frac"])...)
		case scenario.KindMicrobench:
			add(u.Kind, m, u.Kernel.KernelName(), payloadMB(u.Bytes),
				m["alone_us"], m["overlap_us"], m["slowdown"])
		case scenario.KindMultiJob:
			for _, sj := range u.SubJobs {
				placement := sj.Placement
				if placement == "" {
					placement = "shared"
				}
				kind := "stream"
				if sj.IsTraining() {
					kind = "training"
				}
				add(u.Kind, m, cells(u, sj.Name, placement, kind,
					m[sj.Name+"_solo_us"], m[sj.Name+"_co_us"], m[sj.Name+"_slowdown"])...)
			}
		case scenario.KindGraph:
			add(u.Kind, m, cells(u, graphLabel(u),
				m["graph_span_us"], m["graph_compute_us"], m["graph_exposed_us"], m["graph_exposed_frac"])...)
		}
	}
	if t := r.TraceTable(); t != nil {
		tabs = append(tabs, t)
	}
	if t := r.PowerTable(); t != nil {
		tabs = append(tabs, t)
	}
	if len(r.Assertions) > 0 {
		t := report.New(r.Name+": assertions", "assertion", "matched", "status")
		for _, o := range r.Assertions {
			status := "ok"
			if !o.OK() {
				status = fmt.Sprintf("FAIL (%d)", len(o.Violations))
			}
			t.Add(o.Assertion.String(), o.Matched, status)
		}
		tabs = append(tabs, t)
	}
	return tabs
}

// unitJSON is the flattened machine-readable form of a unit result.
type unitJSON struct {
	Index        int                 `json:"index"`
	Kind         string              `json:"kind"`
	Torus        string              `json:"torus,omitempty"`
	Preset       string              `json:"preset,omitempty"`
	Overrides    *scenario.Overrides `json:"overrides,omitempty"`
	Collective   string              `json:"collective,omitempty"`
	PayloadBytes int64               `json:"payload_bytes,omitempty"`
	Workload     string              `json:"workload,omitempty"`
	DLRMOpt      bool                `json:"dlrm_optimized,omitempty"`
	Kernel       string              `json:"kernel,omitempty"`
	Jobs         []string            `json:"jobs,omitempty"`
	Graph        string              `json:"graph,omitempty"`
	Metrics      map[string]float64  `json:"metrics"`
}

type resultsJSON struct {
	Name     string     `json:"name"`
	Units    []unitJSON `json:"units"`
	Failures []string   `json:"failures,omitempty"`
}

// unitJSONOf flattens one unit result into its machine-readable form.
func unitJSONOf(ur UnitResult) unitJSON {
	u := ur.Unit
	uj := unitJSON{Index: u.Index, Kind: string(u.Kind), Overrides: u.Overrides, Metrics: ur.Metrics}
	switch u.Kind {
	case scenario.KindCollective:
		uj.Torus, uj.Preset = u.Topo.String(), u.Preset.String()
		uj.Collective, uj.PayloadBytes = u.Collective.String(), u.Bytes
	case scenario.KindTraining:
		uj.Torus, uj.Preset, uj.Workload = u.Topo.String(), u.Preset.String(), u.Workload
		uj.DLRMOpt = u.DLRMOptimized
	case scenario.KindMicrobench:
		uj.Kernel, uj.PayloadBytes = u.Kernel.KernelName(), u.Bytes
	case scenario.KindMultiJob:
		uj.Torus, uj.Preset = u.Topo.String(), u.Preset.String()
		for _, sj := range u.SubJobs {
			uj.Jobs = append(uj.Jobs, sj.Name)
		}
	case scenario.KindGraph:
		uj.Torus, uj.Preset = u.Topo.String(), u.Preset.String()
		uj.Graph = graphLabel(u)
	}
	return uj
}

// MarshalUnitLine renders one unit result as a single compact JSON
// object (no trailing newline) — the element type of the serving
// layer's json-lines result stream. Metrics maps marshal with sorted
// keys, so the line is byte-deterministic for a given result.
func MarshalUnitLine(ur UnitResult) ([]byte, error) {
	return json.Marshal(unitJSONOf(ur))
}

// WriteJSON renders the results as one indented JSON document.
func (r *Results) WriteJSON(w io.Writer) error {
	out := resultsJSON{Name: r.Name, Failures: r.Failures()}
	for _, ur := range r.Units {
		out.Units = append(out.Units, unitJSONOf(ur))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteCSV renders every table as CSV, separated by blank lines.
func (r *Results) WriteCSV(w io.Writer) error {
	for i, t := range r.Tables() {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders every table as aligned text.
func (r *Results) WriteText(w io.Writer) error {
	for _, t := range r.Tables() {
		if err := t.Write(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Traced reports whether any unit carries a span collector.
func (r *Results) Traced() bool {
	for _, ur := range r.Units {
		if ur.Trace != nil {
			return true
		}
	}
	return false
}

// TraceTable summarizes the per-unit exposed-communication breakdown, or
// nil when the run was untraced.
func (r *Results) TraceTable() *report.Table {
	if !r.Traced() {
		return nil
	}
	t := report.New(r.Name+": trace (exposed-communication breakdown)",
		"unit", "kind", "comm us", "exposed us", "overlapped us", "compute us",
		"overlap frac", "link util", "hbm util", "spans")
	for _, ur := range r.Units {
		if ur.Trace == nil {
			continue
		}
		m := ur.Metrics
		t.Add(fmt.Sprintf("u%d %s", ur.Unit.Index, describe(ur.Unit)), string(ur.Unit.Kind),
			m["trace_comm_us"], m["trace_exposed_us"], m["trace_overlapped_us"], m["trace_compute_us"],
			m["overlap_frac"], m["trace_link_util"], m["trace_hbm_util"], int64(m["trace_spans"]))
	}
	return t
}

// Powered reports whether any unit carries an energy report.
func (r *Results) Powered() bool {
	for _, ur := range r.Units {
		if ur.Power != nil {
			return true
		}
	}
	return false
}

// PowerTable summarizes the per-unit energy breakdown, or nil when the
// scenario had no enabled power block (microbench units, which report
// no energy, are skipped).
func (r *Results) PowerTable() *report.Table {
	if !r.Powered() {
		return nil
	}
	t := report.New(r.Name+": energy & power",
		"unit", "kind", "total J", "compute J", "hbm J", "ace J", "link J", "static J",
		"avg W", "peak W", "perf/W")
	for _, ur := range r.Units {
		if ur.Power == nil {
			continue
		}
		b := ur.Power.Breakdown
		t.Add(fmt.Sprintf("u%d %s", ur.Unit.Index, describe(ur.Unit)), string(ur.Unit.Kind),
			b.TotalJ, b.ComputeJ, b.HBMJ, b.ACEJ, b.LinkJ, b.StaticJ,
			b.AvgW, b.PeakW, b.PerfPerWatt)
	}
	return t
}

// WritePowerCSV renders every powered unit's windowed power timeline as
// one combined CSV (units in expansion order, so the output is
// byte-identical for any worker count).
func (r *Results) WritePowerCSV(w io.Writer) error {
	if !r.Powered() {
		return fmt.Errorf("runner: results carry no power timeline (enable the scenario's \"power\" block)")
	}
	if _, err := fmt.Fprintln(w, "unit,time_us,compute_w,hbm_w,fabric_w,static_w,total_w"); err != nil {
		return err
	}
	for _, ur := range r.Units {
		if ur.Power == nil {
			continue
		}
		s := ur.Power.Sampler
		for b := 0; b < s.Windows(ur.Power.Makespan); b++ {
			cw, hw, fw := s.Compute.PowerW(b), s.HBM.PowerW(b), s.Fabric.PowerW(b)
			if _, err := fmt.Fprintf(w, "u%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
				ur.Unit.Index, (des.Time(b) * s.Window).Micros(),
				cw, hw, fw, s.StaticW, cw+hw+fw+s.StaticW); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteUtilCSV renders every training unit's utilization timeline as
// one combined CSV (units in expansion order, so the output is
// byte-identical for any worker count).
func (r *Results) WriteUtilCSV(w io.Writer) error {
	if !slices.ContainsFunc(r.Units, func(ur UnitResult) bool { return ur.Util != nil }) {
		return fmt.Errorf("runner: results carry no utilization timeline (enable the scenario's \"utilization\" block)")
	}
	if _, err := fmt.Fprintln(w, "unit,time_us,net_util,compute_util"); err != nil {
		return err
	}
	for _, ur := range r.Units {
		if ur.Util == nil {
			continue
		}
		for b, net := range ur.Util.Net {
			if _, err := fmt.Fprintf(w, "u%d,%d,%.4f,%.4f\n", ur.Unit.Index, b, net, ur.Util.Compute[b]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTraceCSV renders the trace summary table as CSV.
func (r *Results) WriteTraceCSV(w io.Writer) error {
	t := r.TraceTable()
	if t == nil {
		return fmt.Errorf("runner: results carry no trace (run with tracing enabled)")
	}
	return t.WriteCSV(w)
}

// WriteChromeTrace exports every traced unit's spans as one Chrome
// trace-event JSON document (Perfetto-loadable). Units are emitted in
// expansion order, so the output is byte-identical for any worker count.
func (r *Results) WriteChromeTrace(w io.Writer) error {
	var units []trace.Export
	for _, ur := range r.Units {
		if ur.Trace == nil {
			continue
		}
		units = append(units, trace.Export{
			Label: fmt.Sprintf("u%d %s", ur.Unit.Index, describe(ur.Unit)),
			T:     ur.Trace,
		})
	}
	if len(units) == 0 {
		return fmt.Errorf("runner: results carry no trace (run with tracing enabled)")
	}
	return trace.WriteChrome(w, units)
}
