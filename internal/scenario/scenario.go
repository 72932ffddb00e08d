// Package scenario defines the declarative scenario format: a JSON file
// describing a platform grid (torus sizes x Table VI presets), a list of
// jobs (standalone collectives with payload sweeps, training workloads,
// or the Section III interference microbenchmark), and optional
// assertions over the measured metrics. A scenario expands into a flat
// list of independent work units that the runner package executes on a
// bounded worker pool. See README.md for the schema and
// examples/scenarios/ for bundled files.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/fault"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/power"
	"acesim/internal/system"
	"acesim/internal/workload"
)

// Scenario is one declarative experiment description.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Platform is the grid every collective and training job runs on.
	// It may be omitted when all jobs are microbenchmarks (those run on
	// the fixed Section III platform).
	Platform   *Platform   `json:"platform,omitempty"`
	Jobs       []Job       `json:"jobs"`
	Assertions []Assertion `json:"assertions,omitempty"`
	// Trace, when enabled, runs every unit with the span collector and
	// adds the trace_* / overlap_* metrics to each unit's results; the
	// whole timeline can then be exported via `acesim trace`.
	Trace *TraceSpec `json:"trace,omitempty"`
	// Power, when enabled, runs every unit with energy accounting and
	// adds the energy_* / *_power_w metrics to each unit's results;
	// the windowed power timeline can then be exported as CSV or as
	// Chrome-trace counter tracks via `acesim trace`.
	Power *PowerSpec `json:"power,omitempty"`
	// Events is the timed fault/dynamics track applied to every unit of
	// the scenario: link failure/restore/degradation, NPU stragglers,
	// checkpoint stalls and job departures, each at a fixed simulation
	// time. A scenario with events adds the fault_* metrics to each unit.
	Events []fault.Event `json:"events,omitempty"`
	// Recovery tunes the retry/backoff/park policy link faults are
	// recovered under; nil takes the collectives defaults.
	Recovery *fault.Recovery `json:"recovery,omitempty"`
	// Relative lists metrics taken relative to another unit of the same
	// scenario; each becomes an assertable metric and a table column.
	Relative []Relative `json:"relative,omitempty"`

	// dir is the scenario file's directory (set by Load); relative graph
	// paths resolve against it. Scenarios parsed from a reader resolve
	// against the working directory.
	dir string
}

// Platform is the grid of simulated platforms: the cross product of
// fabric topologies and Table VI presets, with optional spec overrides.
type Platform struct {
	// Toruses lists fabric shapes as legacy "LxVxH" strings (e.g.
	// "4x2x2"); each parses into an all-wraparound topology. The general
	// form is Topologies; both lists are concatenated (toruses first).
	Toruses []string `json:"toruses,omitempty"`
	// Topologies lists fabric shapes in the general form: either a
	// compact string ("4x4x4", "8x8m" — "m" marks a mesh dimension) or a
	// full per-dimension object
	// {"dims":[{"size":8,"wrap":true,"gbps":200},...]} with optional
	// per-dimension bandwidth (gbps) and latency (lat_cycles) overrides.
	Topologies []noc.Topology `json:"topologies,omitempty"`
	// Presets lists Table VI configuration names; empty means all five.
	Presets []string `json:"presets,omitempty"`
	// FastGranularity coarsens collective chunking for large grids
	// (the same fidelity knob the harness uses for training sweeps).
	FastGranularity bool `json:"fast_granularity,omitempty"`
	// Engine selects the collective execution engine for every unit on
	// this platform: "des" (default; full event fidelity), "hybrid"
	// (exact fast path for provably uncontended phases, automatic DES
	// fallback otherwise) or "analytic" (closed-form approximate timing
	// with exact fabric byte accounting). See DESIGN.md, "Fidelity
	// knobs".
	Engine string `json:"engine,omitempty"`
	// Overrides is a grid axis of override points: every topology runs
	// every point under every preset. Empty means one point with the
	// preset defaults.
	Overrides []Overrides `json:"overrides,omitempty"`
}

// Overrides is one override point: individual platform parameters
// adjusted away from the preset defaults. Nil fields keep the preset
// value.
type Overrides struct {
	CommMemGBps  *float64 `json:"comm_mem_gbps,omitempty"`
	CommSMs      *int     `json:"comm_sms,omitempty"`
	IntraGBps    *float64 `json:"intra_gbps,omitempty"`
	InterGBps    *float64 `json:"inter_gbps,omitempty"`
	ACESRAMBytes *int64   `json:"ace_sram_bytes,omitempty"`
	ACEFSMs      *int     `json:"ace_fsms,omitempty"`
	// FIFOSched replaces the default LIFO collective priority with FIFO
	// (issue order), the Section V scheduling ablation.
	FIFOSched *bool `json:"fifo_sched,omitempty"`
	// LinkEfficiency sets the achievable fraction of raw bandwidth on
	// both link classes.
	LinkEfficiency *float64 `json:"link_efficiency,omitempty"`
}

// Apply overwrites the set fields onto spec. Safe on nil.
func (o *Overrides) Apply(spec *system.Spec) {
	if o == nil {
		return
	}
	if o.CommMemGBps != nil {
		spec.NPU.CommMemGBps = *o.CommMemGBps
	}
	if o.CommSMs != nil {
		spec.NPU.CommSMs = *o.CommSMs
	}
	if o.IntraGBps != nil {
		spec.Intra.GBps = *o.IntraGBps
	}
	if o.InterGBps != nil {
		spec.Inter.GBps = *o.InterGBps
	}
	if o.ACESRAMBytes != nil {
		spec.ACE.SRAMBytes = *o.ACESRAMBytes
	}
	if o.ACEFSMs != nil {
		spec.ACE.FSMs = *o.ACEFSMs
	}
	if o.FIFOSched != nil {
		spec.Coll.FIFOSched = *o.FIFOSched
	}
	if o.LinkEfficiency != nil {
		spec.Intra.Efficiency = *o.LinkEfficiency
		spec.Inter.Efficiency = *o.LinkEfficiency
	}
}

// String labels the override point by its set fields in schema order,
// e.g. "comm_mem_gbps=128 comm_sms=80".
func (o *Overrides) String() string {
	b, _ := json.Marshal(o)
	return overrideLabel.Replace(strings.Trim(string(b), "{}"))
}

var overrideLabel = strings.NewReplacer(`"`, "", ":", "=", ",", " ")

// JobKind discriminates the job types.
type JobKind string

// Job kinds.
const (
	// KindCollective runs one standalone collective per payload on
	// every platform grid point.
	KindCollective JobKind = "collective"
	// KindTraining runs the two-iteration training measurement for
	// every listed workload on every platform grid point.
	KindTraining JobKind = "training"
	// KindMicrobench runs the Section III interference microbenchmark
	// (all-reduce overlapped with a compute kernel) on the paper's
	// fixed 8-NPU switch platform; the platform grid does not apply.
	KindMicrobench JobKind = "microbench"
	// KindMultiJob co-runs N concurrent sub-jobs (training workloads or
	// standing collective streams) on every platform grid point — on the
	// shared full fabric or on disjoint sub-torus partitions — and
	// reports each sub-job's slowdown against its solo baseline.
	KindMultiJob JobKind = "multijob"
	// KindGraph runs a workload execution graph on every platform grid
	// point: a hand-written (or externally generated) JSON graph file, or
	// a pipeline-parallel schedule synthesized from a bundled workload.
	KindGraph JobKind = "graph"
)

// Job is one sweep within a scenario.
type Job struct {
	Kind JobKind `json:"kind"`
	// Collective selects "allreduce" (default) or "alltoall" for
	// collective jobs.
	Collective string `json:"collective,omitempty"`
	// PayloadsMB and PayloadBytes define the payload sweep for
	// collective and microbench jobs; both lists are concatenated.
	PayloadsMB   []float64 `json:"payloads_mb,omitempty"`
	PayloadBytes []int64   `json:"payload_bytes,omitempty"`
	// Workloads lists training workloads by name (resnet50, gnmt, dlrm).
	Workloads []string `json:"workloads,omitempty"`
	// Iterations overrides the paper's two-iteration default (0 keeps it).
	Iterations int `json:"iterations,omitempty"`
	// DLRMOptimized enables the Fig 12 optimized DLRM training loop.
	DLRMOptimized bool `json:"dlrm_optimized,omitempty"`
	// Kernels lists the interfering compute kernels of a microbench job.
	Kernels []Kernel `json:"kernels,omitempty"`
	// Jobs lists the concurrent sub-jobs of a multijob group.
	Jobs []SubJob `json:"jobs,omitempty"`
	// Arbitration selects how concurrent sub-jobs share each node's
	// endpoint on a shared fabric: "lifo" (default) or "round-robin".
	Arbitration string `json:"arbitration,omitempty"`
	// Graph names a JSON execution-graph file for graph jobs (resolved
	// relative to the scenario file). The graph's rank count must match
	// every torus of the platform grid.
	Graph string `json:"graph,omitempty"`
	// Pipeline synthesizes a pipeline-parallel execution graph for graph
	// jobs instead of loading one from a file.
	Pipeline *PipelineSpec `json:"pipeline,omitempty"`
}

// PipelineSpec describes a synthesized pipeline-parallel graph job: the
// named workload's layer stack split over Stages stages (each torus's
// nodes divided evenly, so stages map to contiguous rank slabs), with
// the per-NPU mini-batch split into Microbatches.
type PipelineSpec struct {
	Workload     string `json:"workload"`
	Stages       int    `json:"stages"`
	Microbatches int    `json:"microbatches"`
	// Schedule is "gpipe" (default: all forwards, then all backwards,
	// one fused blocking all-reduce per stage) or "1f1b" (warmup +
	// one-forward-one-backward steady state, per-layer all-reduces
	// overlapped with the drain and the next iteration's forward).
	Schedule string `json:"schedule,omitempty"`
	// Iterations overrides the paper's two-iteration default (0 keeps it).
	Iterations int `json:"iterations,omitempty"`
}

// SubJob is one concurrent job of a multijob group: a training workload
// (workload set) or a standing collective stream (payload set). Its
// placement decides whether it shares the full fabric with the other
// sub-jobs or runs isolated on a sub-torus carve-out.
type SubJob struct {
	// Name labels the job in results; defaults to "job<i>".
	Name string `json:"name,omitempty"`
	// Placement is "shared" (default, empty) for the full fabric, or a
	// sub-torus carve-out "LxVxH@l,v,h" (origin defaults to 0,0,0).
	// All sub-jobs of a group must use the same mode, and partitions
	// must be pairwise disjoint.
	Placement string `json:"placement,omitempty"`
	// Workload names a training workload (resnet50, gnmt, dlrm).
	Workload string `json:"workload,omitempty"`
	// Iterations overrides the two-iteration default for training jobs.
	Iterations int `json:"iterations,omitempty"`
	// Collective, PayloadMB/PayloadBytes and Repeat describe a standing
	// collective stream: Repeat (default 1) collectives issued
	// back-to-back per node.
	Collective   string  `json:"collective,omitempty"`
	PayloadMB    float64 `json:"payload_mb,omitempty"`
	PayloadBytes int64   `json:"payload_bytes,omitempty"`
	Repeat       int     `json:"repeat,omitempty"`
	// StartAtUs delays the sub-job's arrival to the given simulation time
	// (microseconds); its completion is then measured from its own start.
	// The solo baseline ignores it — solo jobs run alone from t=0, which
	// is what keeps "<name>_slowdown" attributable to contention.
	StartAtUs float64 `json:"start_at_us,omitempty"`
}

// IsTraining reports whether the sub-job is a training workload (vs a
// standing collective stream).
func (sj SubJob) IsTraining() bool { return sj.Workload != "" }

// StreamBytes resolves the stream payload (MB and byte fields summed).
func (sj SubJob) StreamBytes() int64 {
	return int64(sj.PayloadMB*(1<<20)) + sj.PayloadBytes
}

// validate checks one sub-job against every torus of the platform grid.
func (sj SubJob) validate(toruses []noc.Topology) error {
	if sj.IsTraining() {
		if sj.PayloadMB != 0 || sj.PayloadBytes != 0 || sj.Repeat != 0 || sj.Collective != "" {
			return errors.New("workload and stream fields are mutually exclusive")
		}
		if _, err := workload.ByName(sj.Workload); err != nil {
			return err
		}
		if sj.Iterations < 0 {
			return errors.New("negative iterations")
		}
	} else {
		if sj.StreamBytes() <= 0 {
			return errors.New("needs a workload or a positive stream payload")
		}
		if sj.Repeat < 0 {
			return errors.New("negative repeat")
		}
		if sj.Iterations != 0 {
			return errors.New("iterations only applies to training sub-jobs")
		}
		if _, err := ParseCollective(sj.Collective); err != nil {
			return err
		}
	}
	if sj.StartAtUs < 0 {
		return errors.New("negative start_at_us")
	}
	if sj.Placement != "" && sj.Placement != "shared" {
		for _, t := range toruses {
			if _, err := noc.ParsePartition(t, sj.Placement); err != nil {
				return err
			}
		}
	}
	return nil
}

// Kernel describes one Section III interference kernel: exactly one of
// GEMMN (GEMM NxN) or EmbBatch (pooled embedding lookup, batch B) must
// be positive.
type Kernel struct {
	GEMMN    int `json:"gemm_n,omitempty"`
	EmbBatch int `json:"emb_batch,omitempty"`
}

// Assertion is a predicate over the metrics of matching work units. It
// fails the scenario if any matching unit violates it, or if no unit
// matches at all.
type Assertion struct {
	// Metric names a measured quantity (see Metrics for the registry).
	Metric string `json:"metric"`
	// Op is one of ">=", "<=", ">", "<", "==", "!=".
	Op    string  `json:"op"`
	Value float64 `json:"value"`
	// Optional filters narrow which units the assertion applies to.
	Preset   string  `json:"preset,omitempty"`
	Workload string  `json:"workload,omitempty"`
	Kind     JobKind `json:"kind,omitempty"`
	// Topology, when set, restricts the assertion to units on the fabric
	// shape with that string form (e.g. "4x4" or "4x4m") — the filter
	// that lets one scenario compare mesh against torus variants.
	Topology string `json:"topology,omitempty"`
	// Job, when set, restricts the assertion to units expanded from the
	// given index into Scenario.Jobs (useful when several multijob
	// groups share one metric name).
	Job *int `json:"job,omitempty"`
}

// Holds reports whether the measured value satisfies the assertion.
func (a Assertion) Holds(v float64) bool {
	switch a.Op {
	case ">=":
		return v >= a.Value
	case "<=":
		return v <= a.Value
	case ">":
		return v > a.Value
	case "<":
		return v < a.Value
	case "==":
		return v == a.Value
	case "!=":
		return v != a.Value
	}
	return false
}

// Selector returns the predicate of the assertion's unit filters, which
// is also the grid-membership test of assertion filters and relative
// selectors. Units carry canonical workload and topology spellings, so
// those filters are canonicalized first ("resnet50" selects "ResNet-50"
// units).
func (a Assertion) Selector() func(Unit) bool {
	workloadName, topo := a.Workload, a.Topology
	if workloadName != "" {
		if m, err := workload.ByName(workloadName); err == nil {
			workloadName = m.Name
		}
	}
	if topo != "" {
		if t, err := ParseTopology(topo); err == nil {
			topo = t.String()
		}
	}
	return func(u Unit) bool {
		platform := u.Kind != KindMicrobench
		return (a.Kind == "" || a.Kind == u.Kind) &&
			(a.Job == nil || *a.Job == u.Job) &&
			(topo == "" || platform && topo == u.Topo.String()) &&
			(a.Preset == "" || platform && a.Preset == u.Preset.String()) &&
			(workloadName == "" || workloadName == u.Workload)
	}
}

// String formats the assertion predicate.
func (a Assertion) String() string {
	var filters []string
	if a.Kind != "" {
		filters = append(filters, string(a.Kind))
	}
	if a.Topology != "" {
		filters = append(filters, a.Topology)
	}
	if a.Job != nil {
		filters = append(filters, fmt.Sprintf("job %d", *a.Job))
	}
	if a.Preset != "" {
		filters = append(filters, a.Preset)
	}
	if a.Workload != "" {
		filters = append(filters, a.Workload)
	}
	where := ""
	if len(filters) > 0 {
		where = " [" + strings.Join(filters, " ") + "]"
	}
	return fmt.Sprintf("%s %s %g%s", a.Metric, a.Op, a.Value, where)
}

// Relative is one metric taken relative to another unit of the same
// scenario: Name = reference Metric / unit Metric, where the reference
// matches the unit on every expansion axis but the selected preset or
// job. Over several presets the smallest ratio (the speedup over the
// best of them) wins.
type Relative struct {
	Name    string   `json:"name"`
	Metric  string   `json:"metric"` // a kind metric (see Metrics)
	Presets []string `json:"presets,omitempty"`
	Job     *int     `json:"job,omitempty"`
}

// TraceSpec is the scenario "trace" block.
type TraceSpec struct {
	// Enabled turns the span collector on for every unit of the run.
	Enabled bool `json:"enabled"`
	// Out optionally names the default Chrome trace-event output path
	// for `acesim trace` (its -out flag takes precedence).
	Out string `json:"out,omitempty"`
}

// TraceEnabled reports whether the scenario asks for tracing.
func (s *Scenario) TraceEnabled() bool { return s.Trace != nil && s.Trace.Enabled }

// PowerSpec is the scenario "power" block: it enables energy
// accounting on every unit, with Table-VI-style per-preset default
// coefficients and optional overrides.
type PowerSpec struct {
	// Enabled turns energy accounting on for every unit of the run.
	Enabled bool `json:"enabled"`
	// WindowUs is the power-timeline sampling window in simulated
	// microseconds (0 takes the 10 us default). Energy totals are
	// window-independent; only peak_power_w and the timeline resolve
	// at this granularity.
	WindowUs float64 `json:"window_us,omitempty"`
	// Coefficients overrides individual energy coefficients away from
	// the preset defaults (system.PowerDefaults). Nil fields keep the
	// default.
	Coefficients *CoeffOverrides `json:"coefficients,omitempty"`
}

// CoeffOverrides adjusts individual energy coefficients. Nil fields
// keep the per-preset default value.
type CoeffOverrides struct {
	ComputePJPerCycle *float64 `json:"compute_pj_per_cycle,omitempty"`
	HBMPJPerByte      *float64 `json:"hbm_pj_per_byte,omitempty"`
	ACEBusyW          *float64 `json:"ace_busy_w,omitempty"`
	DMABusyW          *float64 `json:"dma_busy_w,omitempty"`
	LinkPJPerBit      *float64 `json:"link_pj_per_bit,omitempty"`
	ForwardPJPerByte  *float64 `json:"forward_pj_per_byte,omitempty"`
	StaticNPUW        *float64 `json:"static_npu_w,omitempty"`
	StaticACEW        *float64 `json:"static_ace_w,omitempty"`
	StaticLinkW       *float64 `json:"static_link_w,omitempty"`
}

// fields pairs every override with its JSON name, for apply/validate.
func (o *CoeffOverrides) fields() []struct {
	name string
	v    *float64
	dst  func(*power.Coefficients) *float64
} {
	return []struct {
		name string
		v    *float64
		dst  func(*power.Coefficients) *float64
	}{
		{"compute_pj_per_cycle", o.ComputePJPerCycle, func(c *power.Coefficients) *float64 { return &c.ComputePJPerCycle }},
		{"hbm_pj_per_byte", o.HBMPJPerByte, func(c *power.Coefficients) *float64 { return &c.HBMPJPerByte }},
		{"ace_busy_w", o.ACEBusyW, func(c *power.Coefficients) *float64 { return &c.ACEBusyW }},
		{"dma_busy_w", o.DMABusyW, func(c *power.Coefficients) *float64 { return &c.DMABusyW }},
		{"link_pj_per_bit", o.LinkPJPerBit, func(c *power.Coefficients) *float64 { return &c.LinkPJPerBit }},
		{"forward_pj_per_byte", o.ForwardPJPerByte, func(c *power.Coefficients) *float64 { return &c.ForwardPJPerByte }},
		{"static_npu_w", o.StaticNPUW, func(c *power.Coefficients) *float64 { return &c.StaticNPUW }},
		{"static_ace_w", o.StaticACEW, func(c *power.Coefficients) *float64 { return &c.StaticACEW }},
		{"static_link_w", o.StaticLinkW, func(c *power.Coefficients) *float64 { return &c.StaticLinkW }},
	}
}

// Apply overwrites the set fields onto c. Safe on nil.
func (o *CoeffOverrides) Apply(c *power.Coefficients) {
	if o == nil {
		return
	}
	for _, f := range o.fields() {
		if f.v != nil {
			*f.dst(c) = *f.v
		}
	}
}

// validate rejects non-finite or negative coefficient overrides.
func (o *CoeffOverrides) validate() error {
	if o == nil {
		return nil
	}
	for _, f := range o.fields() {
		if f.v == nil {
			continue
		}
		if *f.v < 0 || *f.v != *f.v || *f.v > 1e18 {
			return fmt.Errorf("coefficient %s: %g out of range [0, 1e18]", f.name, *f.v)
		}
	}
	return nil
}

// PowerEnabled reports whether the scenario asks for energy accounting.
func (s *Scenario) PowerEnabled() bool { return s.Power != nil && s.Power.Enabled }

// Config resolves the power block into a build config for one preset:
// the preset's default coefficients with the block's overrides applied,
// and the sampling window converted to picoseconds. Nil when the block
// is absent or disabled.
func (ps *PowerSpec) Config(p system.Preset) *power.Config {
	if ps == nil || !ps.Enabled {
		return nil
	}
	c := system.PowerDefaults(p)
	ps.Coefficients.Apply(&c)
	return &power.Config{
		Window: des.Time(ps.WindowUs * float64(des.Microsecond)),
		Coeff:  c,
	}
}

// validate checks the power block's shape (window and coefficient
// ranges) independent of any unit.
func (ps *PowerSpec) validate() error {
	if ps == nil {
		return nil
	}
	if ps.WindowUs < 0 || ps.WindowUs != ps.WindowUs || ps.WindowUs > 1e12 {
		return fmt.Errorf("power: window_us %g out of range [0, 1e12]", ps.WindowUs)
	}
	if err := ps.Coefficients.validate(); err != nil {
		return fmt.Errorf("power: %w", err)
	}
	return nil
}

// TraceMetrics lists the metrics the tracing layer adds to every traced
// unit, regardless of job kind (so they carry no kind in Metrics).
var TraceMetrics = map[string]bool{
	"overlap_frac":        true,
	"trace_comm_us":       true,
	"trace_exposed_us":    true,
	"trace_overlapped_us": true,
	"trace_compute_us":    true,
	"trace_link_util":     true,
	"trace_hbm_util":      true,
	"trace_spans":         true,
}

// FaultMetrics lists the metrics the event track adds to every unit of a
// scenario with events, regardless of job kind (so they carry no kind in
// Metrics). fault_slowdown is the exception: multijob units report the
// per-job "<name>_slowdown" values instead, measured against solo
// baselines that strip the event track.
var FaultMetrics = map[string]bool{
	"fault_events":      true,
	"fault_drops":       true,
	"fault_retries":     true,
	"fault_parked":      true,
	"fault_recovery_us": true,
	"fault_slowdown":    true,
}

// PowerMetrics lists the metrics the energy-accounting layer adds to
// every unit of a scenario with an enabled "power" block, regardless
// of job kind (so they carry no kind in Metrics). Microbench units are
// the exception: the Fig 4 harness runs its own fixed platform and
// reports no energy.
var PowerMetrics = map[string]bool{
	"energy_total_j":       true,
	"energy_compute_j":     true,
	"energy_hbm_j":         true,
	"energy_ace_j":         true,
	"energy_link_j":        true,
	"energy_static_j":      true,
	"avg_power_w":          true,
	"peak_power_w":         true,
	"energy_delay_product": true,
	"perf_per_watt":        true,
}

// Metrics maps every assertable metric to the job kind that produces it.
var Metrics = map[string]JobKind{
	// collective metrics
	"duration_us":   KindCollective,
	"eff_gbps_node": KindCollective,
	"reads_node":    KindCollective,
	"writes_node":   KindCollective,
	"wire_bytes":    KindCollective,
	// training metrics
	"iter_time_us":      KindTraining,
	"compute_us":        KindTraining,
	"exposed_us":        KindTraining,
	"exposed_comm_frac": KindTraining,
	"collectives":       KindTraining,
	// microbench metrics
	"alone_us":   KindMicrobench,
	"overlap_us": KindMicrobench,
	"slowdown":   KindMicrobench,
	// multijob metrics (per-sub-job values are additionally reported as
	// "<name>_solo_us", "<name>_co_us" and "<name>_slowdown").
	"job_slowdown_max": KindMultiJob,
	"job_slowdown_min": KindMultiJob,
	// graph metrics: span is the last rank's finish time, compute the
	// busiest rank's kernel time, exposed their difference (communication
	// plus pipeline bubbles not hidden behind the critical rank).
	"graph_span_us":      KindGraph,
	"graph_compute_us":   KindGraph,
	"graph_exposed_us":   KindGraph,
	"graph_exposed_frac": KindGraph,
}

// Unit is one independent work item of an expanded scenario: a single
// simulation on a freshly built system. Units carry everything the
// runner needs and nothing shared, so they execute embarrassingly
// parallel.
type Unit struct {
	// Index is the unit's position in deterministic expansion order;
	// results are reported in this order regardless of worker count.
	Index int
	// Job is the index of the originating job in Scenario.Jobs.
	Job  int
	Kind JobKind

	// Platform point (every kind but microbench); Overrides is nil when
	// the platform has no override points.
	Topo            noc.Topology
	Preset          system.Preset
	FastGranularity bool
	Overrides       *Overrides
	// Engine is the platform's parsed execution engine (zero value: DES).
	Engine collectives.Engine

	// Collective and microbench payload.
	Collective collectives.Kind
	Bytes      int64

	// Training unit.
	Workload      string
	Iterations    int
	DLRMOptimized bool

	// Microbench unit.
	Kernel Kernel

	// Multijob unit.
	SubJobs     []SubJob
	Arbitration string

	// Graph unit: a resolved graph-file path, or a pipeline synthesis.
	GraphFile string
	Pipeline  *PipelineSpec

	// Fault track: every unit of a scenario carries the scenario's full
	// timed event list and recovery policy (events are times on the
	// unit's own simulation clock, so they replay identically on each
	// independent unit).
	Events   []fault.Event
	Recovery *fault.Recovery

	// Power is the scenario's energy-accounting block (nil when absent
	// or disabled); the runner resolves it against the unit's preset.
	Power *PowerSpec
}

// Load reads and parses a scenario file. Call Validate (or Expand) to
// check it.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	sc, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	sc.dir = filepath.Dir(path)
	return sc, nil
}

// Parse decodes a scenario from JSON. Unknown fields are rejected so
// typos surface at validate time rather than silently changing the
// experiment.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data after scenario object")
	}
	return &sc, nil
}

// Validate checks the scenario without running it.
func (s *Scenario) Validate() error {
	_, err := s.Expand()
	return err
}

// ParseTopology parses a fabric-shape string: dimension sizes joined by
// "x", each optionally suffixed with "m" for a mesh (non-wraparound)
// dimension — "4x4x4", "8x8m", "16". The legacy "LxVxH" torus strings
// are the 3-dimension all-wraparound subset.
func ParseTopology(s string) (noc.Topology, error) {
	return noc.ParseTopology(s)
}

// ParseCollective resolves a collective name ("allreduce" or
// "alltoall", case-insensitive; empty defaults to allreduce).
func ParseCollective(s string) (collectives.Kind, error) {
	switch strings.ToLower(s) {
	case "", "allreduce", "all-reduce":
		return collectives.AllReduce, nil
	case "alltoall", "all-to-all":
		return collectives.AllToAll, nil
	}
	return 0, fmt.Errorf("unknown collective %q (want allreduce or alltoall)", s)
}

// Expand validates the scenario and flattens it into work units in
// deterministic order: jobs in file order; within a collective, training,
// multijob or graph job, platform point (topology outer, then override
// point, then preset) x sweep point; within a microbench job, payload
// (outer) x kernel — the same order as the paper's Fig 4 rows.
func (s *Scenario) Expand() ([]Unit, error) {
	if s.Name == "" {
		return nil, errors.New("scenario: missing name")
	}
	if len(s.Jobs) == 0 {
		return nil, fmt.Errorf("scenario %s: no jobs", s.Name)
	}
	toruses, points, err := s.platformGrid()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	var units []Unit
	for ji, j := range s.Jobs {
		fail := func(format string, args ...any) ([]Unit, error) {
			return nil, fmt.Errorf("scenario %s: job %d (%s): %s",
				s.Name, ji, j.Kind, fmt.Sprintf(format, args...))
		}
		emit := func(u Unit) {
			u.Index, u.Job, u.Kind = len(units), ji, j.Kind
			units = append(units, u)
		}
		switch j.Kind {
		case KindCollective:
			if s.Platform == nil {
				return fail("requires a platform grid")
			}
			ck, err := ParseCollective(j.Collective)
			if err != nil {
				return fail("%v", err)
			}
			payloads, err := j.payloads()
			if err != nil {
				return fail("%v", err)
			}
			if len(j.Workloads) > 0 || len(j.Kernels) > 0 || len(j.Jobs) > 0 || j.Arbitration != "" ||
				j.Graph != "" || j.Pipeline != nil {
				return fail("workloads/kernels/jobs/arbitration/graph/pipeline do not apply to collective jobs")
			}
			for _, u := range points {
				for _, b := range payloads {
					u.Collective, u.Bytes = ck, b
					emit(u)
				}
			}
		case KindTraining:
			if s.Platform == nil {
				return fail("requires a platform grid")
			}
			if len(j.Workloads) == 0 {
				return fail("no workloads")
			}
			// Canonicalize names so aliases ("resnet50", "ResNet-50")
			// expand to one spelling that assertion filters can match.
			names := make([]string, len(j.Workloads))
			for wi, w := range j.Workloads {
				m, err := workload.ByName(w)
				if err != nil {
					return fail("%v", err)
				}
				names[wi] = m.Name
			}
			if j.Iterations < 0 {
				return fail("negative iterations")
			}
			if len(j.PayloadsMB) > 0 || len(j.PayloadBytes) > 0 || len(j.Kernels) > 0 || len(j.Jobs) > 0 ||
				j.Arbitration != "" || j.Graph != "" || j.Pipeline != nil {
				return fail("payloads/kernels/jobs/arbitration/graph/pipeline do not apply to training jobs")
			}
			for _, u := range points {
				for _, w := range names {
					u.Workload, u.Iterations, u.DLRMOptimized = w, j.Iterations, j.DLRMOptimized
					emit(u)
				}
			}
		case KindMicrobench:
			payloads, err := j.payloads()
			if err != nil {
				return fail("%v", err)
			}
			if len(j.Kernels) == 0 {
				return fail("no kernels")
			}
			for ki, k := range j.Kernels {
				if (k.GEMMN > 0) == (k.EmbBatch > 0) {
					return fail("kernel %d: exactly one of gemm_n or emb_batch must be positive", ki)
				}
			}
			if len(j.Workloads) > 0 || len(j.Jobs) > 0 || j.Arbitration != "" || j.Graph != "" || j.Pipeline != nil {
				return fail("workloads/jobs/arbitration/graph/pipeline do not apply to microbench jobs")
			}
			for _, b := range payloads {
				for _, k := range j.Kernels {
					emit(Unit{Bytes: b, Kernel: k})
				}
			}
		case KindMultiJob:
			if s.Platform == nil {
				return fail("requires a platform grid")
			}
			if len(j.Jobs) == 0 {
				return fail("no sub-jobs")
			}
			if len(j.PayloadsMB) > 0 || len(j.PayloadBytes) > 0 || len(j.Workloads) > 0 || len(j.Kernels) > 0 ||
				j.Iterations != 0 || j.DLRMOptimized || j.Collective != "" || j.Graph != "" || j.Pipeline != nil {
				return fail("payloads/workloads/kernels/iterations/dlrm_optimized/collective/graph/pipeline do not apply to multijob groups; set them per sub-job in jobs[]")
			}
			if _, err := collectives.ParseArbitration(j.Arbitration); err != nil {
				return fail("%v", err)
			}
			subs := make([]SubJob, len(j.Jobs))
			names := make(map[string]bool, len(j.Jobs))
			shared, partitioned := 0, 0
			for si, sj := range j.Jobs {
				if err := sj.validate(toruses); err != nil {
					return fail("sub-job %d: %v", si, err)
				}
				if sj.Name == "" {
					sj.Name = fmt.Sprintf("job%d", si)
				}
				if sj.IsTraining() {
					// Canonicalize so aliases match result labels.
					m, _ := workload.ByName(sj.Workload)
					sj.Workload = m.Name
				}
				if names[sj.Name] {
					return fail("duplicate sub-job name %q", sj.Name)
				}
				names[sj.Name] = true
				if sj.Placement == "" || sj.Placement == "shared" {
					shared++
				} else {
					partitioned++
				}
				subs[si] = sj
			}
			if shared > 0 && partitioned > 0 {
				return fail("cannot mix shared and partitioned sub-jobs (%d shared, %d partitioned)", shared, partitioned)
			}
			if partitioned > 0 {
				for _, t := range toruses {
					parts := make([]noc.Partition, len(subs))
					for si, sj := range subs {
						parts[si], _ = noc.ParsePartition(t, sj.Placement)
					}
					for a := range parts {
						for b := a + 1; b < len(parts); b++ {
							if parts[a].Overlaps(parts[b]) {
								return fail("sub-jobs %d and %d overlap on %s (%s vs %s)",
									a, b, t, parts[a], parts[b])
							}
						}
					}
				}
			}
			for _, u := range points {
				u.SubJobs, u.Arbitration = subs, j.Arbitration
				emit(u)
			}
		case KindGraph:
			if s.Platform == nil {
				return fail("requires a platform grid")
			}
			if (j.Graph == "") == (j.Pipeline == nil) {
				return fail("exactly one of graph or pipeline must be set")
			}
			if len(j.PayloadsMB) > 0 || len(j.PayloadBytes) > 0 || len(j.Workloads) > 0 || len(j.Kernels) > 0 ||
				len(j.Jobs) > 0 || j.Arbitration != "" || j.Iterations != 0 || j.DLRMOptimized || j.Collective != "" {
				return fail("payloads/workloads/kernels/jobs/arbitration/iterations/dlrm_optimized/collective do not apply to graph jobs")
			}
			path := j.Graph
			if path != "" && !filepath.IsAbs(path) && s.dir != "" {
				path = filepath.Join(s.dir, path)
			}
			if p := j.Pipeline; p != nil {
				m, err := workload.ByName(p.Workload)
				if err != nil {
					return fail("pipeline: %v", err)
				}
				if m.Parallelism != workload.DataParallel {
					return fail("pipeline: %q is not a data-parallel layer stack", m.Name)
				}
				if p.Stages < 2 || p.Stages > len(m.Layers) {
					return fail("pipeline: %d stages out of range [2,%d]", p.Stages, len(m.Layers))
				}
				if p.Microbatches < 1 {
					return fail("pipeline: %d microbatches (want >= 1)", p.Microbatches)
				}
				if p.Iterations < 0 {
					return fail("pipeline: negative iterations")
				}
				if _, err := graph.ParsePipeSchedule(p.Schedule); err != nil {
					return fail("pipeline: %v", err)
				}
				for _, t := range toruses {
					if t.N()%p.Stages != 0 {
						return fail("pipeline: torus %s (%d nodes) not divisible into %d stages", t, t.N(), p.Stages)
					}
				}
			}
			for _, u := range points {
				u.GraphFile, u.Pipeline = path, j.Pipeline
				emit(u)
			}
		default:
			return fail("unknown kind (want collective, training, microbench, multijob or graph)")
		}
	}
	if err := s.validateEvents(units); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if len(s.Events) > 0 {
		for i := range units {
			units[i].Events = s.Events
			units[i].Recovery = s.Recovery
		}
	}
	if err := s.Power.validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.PowerEnabled() {
		for i := range units {
			units[i].Power = s.Power
		}
	}
	relative, err := s.validateRelative(units)
	if err == nil {
		err = s.validateAssertions(units, relative)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return units, nil
}

// validateEvents checks the timed event track against the expanded units
// (after expansion, so sub-job names are defaulted and placements parsed).
// Coordinates of an unscoped event must be valid on every grid topology;
// a job-scoped event's coordinates must be valid on the named sub-job's
// partition shape.
func (s *Scenario) validateEvents(units []Unit) error {
	if err := s.Recovery.Validate(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if len(s.Events) == 0 {
		return nil
	}
	multi, single := 0, 0
	for _, u := range units {
		switch u.Kind {
		case KindMicrobench:
			return fmt.Errorf("events: job %d: the microbench runs its own fixed interference schedule and takes no event track", u.Job)
		case KindMultiJob:
			multi++
		default:
			single++
		}
	}
	if multi > 0 && single > 0 {
		return errors.New("events: cannot mix multijob and single-job kinds in one faulted scenario (job-scoped and unscoped coordinates would be ambiguous); split the scenario")
	}
	for ei, e := range s.Events {
		efail := func(format string, args ...any) error {
			return fmt.Errorf("event %d (%s at %gus): %s", ei, e.Action, e.AtUs, fmt.Sprintf(format, args...))
		}
		for _, u := range units {
			if u.Kind != KindMultiJob {
				if e.Job != "" {
					return efail("job %q: only multijob sub-jobs are named; single-job units take unscoped events", e.Job)
				}
				if err := e.Validate(u.Topo); err != nil {
					return efail("on %s: %v", u.Topo, err)
				}
				continue
			}
			partitioned := u.SubJobs[0].Placement != "" && u.SubJobs[0].Placement != "shared"
			if e.Job == "" {
				if e.Action == fault.JobDepart {
					return efail("job_depart needs a job name in a multijob scenario")
				}
				if partitioned {
					return efail("needs a job scope: job %d's sub-jobs are partitioned, so link/node coordinates are partition-local", u.Job)
				}
				if err := e.Validate(u.Topo); err != nil {
					return efail("on %s: %v", u.Topo, err)
				}
				continue
			}
			var sub *SubJob
			for si := range u.SubJobs {
				if u.SubJobs[si].Name == e.Job {
					sub = &u.SubJobs[si]
					break
				}
			}
			if sub == nil {
				return efail("job %d has no sub-job named %q", u.Job, e.Job)
			}
			if !partitioned && e.Action != fault.JobDepart {
				return efail("the shared fabric is not job-scoped; drop the job field")
			}
			shape := u.Topo
			if partitioned {
				p, err := noc.ParsePartition(u.Topo, sub.Placement)
				if err != nil {
					return efail("job %q: %v", e.Job, err)
				}
				shape = p.Shape
			}
			if err := e.Validate(shape); err != nil {
				return efail("job %q on %s: %v", e.Job, shape, err)
			}
		}
	}
	return nil
}

// platformGrid resolves the platform grid: the topology list (the legacy
// toruses strings, parsed into all-wraparound topologies, then the
// general topologies entries, in file order) and one unit template per
// grid point carrying its platform fields, in expansion order —
// topology (outer) x override point x preset.
func (s *Scenario) platformGrid() ([]noc.Topology, []Unit, error) {
	p := s.Platform
	if p == nil {
		return nil, nil, nil
	}
	if len(p.Toruses) == 0 && len(p.Topologies) == 0 {
		return nil, nil, errors.New("platform.toruses and platform.topologies are both empty")
	}
	var toruses []noc.Topology
	for _, ts := range p.Toruses {
		t, err := ParseTopology(ts)
		if err != nil {
			return nil, nil, err
		}
		toruses = append(toruses, t)
	}
	for _, t := range p.Topologies {
		if err := t.Validate(); err != nil {
			return nil, nil, err
		}
		toruses = append(toruses, t)
	}
	presets := system.Presets()
	if len(p.Presets) > 0 {
		presets = presets[:0:0]
		for _, ps := range p.Presets {
			pr, err := system.ParsePreset(ps)
			if err != nil {
				return nil, nil, err
			}
			presets = append(presets, pr)
		}
	}
	engine, err := collectives.ParseEngine(p.Engine)
	if err != nil {
		return nil, nil, fmt.Errorf("platform: %w", err)
	}
	overs := []*Overrides{nil}
	if len(p.Overrides) > 0 {
		overs = make([]*Overrides, len(p.Overrides))
		for i := range p.Overrides {
			o := &p.Overrides[i]
			// The checked bounds (SM and HBM totals, link and ACE
			// parameters) are the same on every topology and preset, so
			// one spec per override point covers the whole grid.
			spec := system.NewSpec(toruses[0], presets[0])
			o.Apply(&spec)
			if err := spec.Validate(); err != nil {
				return nil, nil, fmt.Errorf("platform.overrides[%d] (%s): %w", i, o, err)
			}
			overs[i] = o
		}
	}
	points := make([]Unit, 0, len(toruses)*len(overs)*len(presets))
	for _, t := range toruses {
		for _, o := range overs {
			for _, pr := range presets {
				points = append(points, Unit{
					Topo: t, Preset: pr, Overrides: o,
					FastGranularity: p.FastGranularity,
					Engine:          engine,
				})
			}
		}
	}
	return toruses, points, nil
}

// payloads concatenates the MB and byte payload lists.
func (j Job) payloads() ([]int64, error) {
	var out []int64
	for _, mb := range j.PayloadsMB {
		if mb <= 0 {
			return nil, fmt.Errorf("non-positive payload %g MB", mb)
		}
		out = append(out, int64(mb*(1<<20)))
	}
	for _, b := range j.PayloadBytes {
		if b <= 0 {
			return nil, fmt.Errorf("non-positive payload %d B", b)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, errors.New("no payloads")
	}
	return out, nil
}

// validateRelative checks the relative block and returns the job kind
// of each entry by name.
func (s *Scenario) validateRelative(units []Unit) (map[string]JobKind, error) {
	kinds := map[string]JobKind{}
	for i, r := range s.Relative {
		kind, ok := Metrics[r.Metric]
		var err error
		switch {
		case r.Name == "" || Metrics[r.Name] != "" || kinds[r.Name] != "" || TraceMetrics[r.Name] || FaultMetrics[r.Name] ||
			PowerMetrics[r.Name] || s.isSubJobMetric(r.Name):
			err = errors.New("needs a name no other metric has")
		case !ok:
			err = fmt.Errorf("unknown metric %q (want a kind metric)", r.Metric)
		case (len(r.Presets) > 0) == (r.Job != nil):
			err = errors.New("needs exactly one of presets or job")
		case r.Job != nil && !slices.ContainsFunc(units, Assertion{Kind: kind, Job: r.Job}.Selector()):
			err = fmt.Errorf("job %d runs no %s units", *r.Job, kind)
		case r.Job == nil && kind == KindMicrobench:
			err = errors.New("microbench units have no preset; select a job")
		}
		for _, p := range r.Presets {
			if err == nil && !slices.ContainsFunc(units, Assertion{Kind: kind, Preset: p}.Selector()) {
				err = fmt.Errorf("no %s unit runs preset %q", kind, p)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("relative %d (%s): %w", i, r.Name, err)
		}
		kinds[r.Name] = kind
	}
	return kinds, nil
}

func (s *Scenario) validateAssertions(units []Unit, relative map[string]JobKind) error {
	for i, a := range s.Assertions {
		if TraceMetrics[a.Metric] {
			// Trace metrics exist on every traced unit, whatever its
			// kind — but only when the scenario enables tracing.
			if !s.TraceEnabled() {
				return fmt.Errorf("assertion %d: metric %q requires \"trace\": {\"enabled\": true}", i, a.Metric)
			}
		} else if FaultMetrics[a.Metric] {
			// Fault metrics exist on every unit of a scenario that
			// declares an event track.
			if len(s.Events) == 0 {
				return fmt.Errorf("assertion %d: metric %q requires an events track", i, a.Metric)
			}
			if a.Metric == "fault_slowdown" && a.Kind == KindMultiJob {
				return fmt.Errorf("assertion %d: multijob units report per-job \"<name>_slowdown\" values instead of fault_slowdown", i)
			}
		} else if PowerMetrics[a.Metric] {
			// Power metrics exist on every unit of a scenario with an
			// enabled power block (except microbench units, which run
			// the fixed Fig 4 harness and report no energy).
			if !s.PowerEnabled() {
				return fmt.Errorf("assertion %d: metric %q requires \"power\": {\"enabled\": true}", i, a.Metric)
			}
			if a.Kind == KindMicrobench {
				return fmt.Errorf("assertion %d: microbench units report no energy metrics", i)
			}
		} else {
			kind, ok := Metrics[a.Metric]
			if !ok {
				kind, ok = relative[a.Metric]
			}
			if !ok {
				// Per-sub-job multijob metrics ("<name>_slowdown" etc.)
				// are named after the scenario's own sub-jobs.
				kind, ok = KindMultiJob, s.isSubJobMetric(a.Metric)
			}
			if !ok {
				return fmt.Errorf("assertion %d: unknown metric %q", i, a.Metric)
			}
			if a.Kind != "" && a.Kind != kind {
				return fmt.Errorf("assertion %d: metric %q belongs to %s jobs, not %s",
					i, a.Metric, kind, a.Kind)
			}
			// A kind metric can only match units of its kind.
			a.Kind = kind
		}
		switch a.Op {
		case ">=", "<=", ">", "<", "==", "!=":
		default:
			return fmt.Errorf("assertion %d: unknown op %q", i, a.Op)
		}
		if a.Preset != "" {
			if _, err := system.ParsePreset(a.Preset); err != nil {
				return fmt.Errorf("assertion %d: %w", i, err)
			}
		}
		if a.Job != nil && (*a.Job < 0 || *a.Job >= len(s.Jobs)) {
			return fmt.Errorf("assertion %d: job %d out of range [0,%d)", i, *a.Job, len(s.Jobs))
		}
		if !slices.ContainsFunc(units, a.Selector()) {
			return fmt.Errorf("assertion %d (%s): no unit of the grid matches its filters", i, s.Assertions[i])
		}
	}
	return nil
}

// isSubJobMetric reports whether the metric names a per-sub-job multijob
// value — "<name>_solo_us", "<name>_co_us" or "<name>_slowdown" for a
// sub-job of one of the scenario's multijob groups (names defaulted the
// same way expansion defaults them).
func (s *Scenario) isSubJobMetric(metric string) bool {
	for _, j := range s.Jobs {
		if j.Kind != KindMultiJob {
			continue
		}
		for si, sj := range j.Jobs {
			name := sj.Name
			if name == "" {
				name = fmt.Sprintf("job%d", si)
			}
			if metric == name+"_solo_us" || metric == name+"_co_us" || metric == name+"_slowdown" {
				return true
			}
		}
	}
	return false
}

// KernelName formats the kernel the way the Fig 4 harness names it.
func (k Kernel) KernelName() string {
	if k.GEMMN > 0 {
		return fmt.Sprintf("GEMM %d", k.GEMMN)
	}
	return fmt.Sprintf("EmbLookup %d", k.EmbBatch)
}
