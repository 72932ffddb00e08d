// Package acesim is a discrete-event simulator reproducing "Enabling
// Compute-Communication Overlap in Distributed Deep Learning Training
// Platforms" (Rashidi et al., ISCA 2021): the ACE collective-communication
// engine, the software baselines it is compared against, the 3D-torus
// accelerator fabric, the ResNet-50 / GNMT / DLRM training workloads, and
// the full experiment harness behind every table and figure of the paper.
//
// The root package is a facade over the internal packages; it exposes
// everything needed to build a platform, run collectives and training
// iterations, and regenerate the paper's experiments. See DESIGN.md for
// the modeling details and EXPERIMENTS.md for measured results.
//
// Quick start:
//
//	spec := acesim.NewSpec(acesim.Torus3(4, 2, 2), acesim.ACE)
//	res, err := acesim.RunCollective(spec, acesim.AllReduce, 64<<20)
//	// res.EffGBpsNode is the achieved network bandwidth per NPU.
package acesim

import (
	"context"
	"io"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/exper"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/scenario"
	"acesim/internal/scenario/runner"
	"acesim/internal/serve"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// Topology is the accelerator-fabric shape: an ordered list of
// dimensions, each a ring (wraparound) or a line (mesh), with optional
// per-dimension link bandwidth/latency overrides. The paper's Table V
// LxVxH 3D torus is Torus3.
type Topology = noc.Topology

// DimSpec describes one dimension of a Topology.
type DimSpec = noc.DimSpec

// Torus3 returns the paper's LxVxH 3D torus (every dimension wraps).
func Torus3(l, v, h int) Topology { return noc.Torus3(l, v, h) }

// Grid returns an all-wraparound topology with the given sizes, one
// dimension per argument (2D/4D tori, flat rings, ...).
func Grid(sizes ...int) Topology { return noc.Grid(sizes...) }

// ParseTopology parses a fabric-shape string: sizes joined by "x", each
// optionally suffixed with "m" for a mesh (non-wraparound) dimension —
// "4x4x4", "8x8m", "16".
func ParseTopology(s string) (Topology, error) { return noc.ParseTopology(s) }

// Preset selects a Table VI system configuration.
type Preset = system.Preset

// The five Table VI configurations.
const (
	BaselineNoOverlap = system.BaselineNoOverlap
	BaselineCommOpt   = system.BaselineCommOpt
	BaselineCompOpt   = system.BaselineCompOpt
	ACE               = system.ACE
	Ideal             = system.Ideal
)

// Presets lists the five configurations in the paper's order.
func Presets() []Preset { return system.Presets() }

// ParsePreset resolves a preset by its printed name.
func ParsePreset(s string) (Preset, error) { return system.ParsePreset(s) }

// Spec fully describes a simulated platform (Table V parameters plus a
// Table VI preset). Obtain one from NewSpec and adjust fields as needed.
type Spec = system.Spec

// NewSpec returns the paper's platform at the given size and preset.
func NewSpec(t Topology, p Preset) Spec { return system.NewSpec(t, p) }

// System is a fully wired platform.
type System = system.System

// Build constructs a platform from a spec.
func Build(spec Spec) (*System, error) { return system.Build(spec) }

// CollectiveKind selects the collective operation.
type CollectiveKind = collectives.Kind

// Collective kinds used by the paper's workloads.
const (
	AllReduce = collectives.AllReduce
	AllToAll  = collectives.AllToAll
)

// CollectiveResult summarizes a standalone collective run.
type CollectiveResult = exper.CollectiveResult

// RunCollective executes one collective of the given kind and per-node
// payload on a freshly built system.
func RunCollective(spec Spec, kind CollectiveKind, bytes int64) (CollectiveResult, error) {
	return exper.RunCollective(spec, kind, bytes)
}

// Model is a training workload.
type Model = workload.Model

// The paper's three evaluation workloads at their default per-NPU batch
// sizes (32 / 128 / 512).
func ResNet50() *Model { return workload.ResNet50(workload.ResNet50Batch) }

// GNMT returns the GNMT workload.
func GNMT() *Model { return workload.GNMT(workload.GNMTBatch) }

// DLRM returns the DLRM workload.
func DLRM() *Model { return workload.DLRM(workload.DLRMBatch) }

// WorkloadByName resolves "resnet50", "gnmt" or "dlrm".
func WorkloadByName(name string) (*Model, error) { return workload.ByName(name) }

// TrainConfig tunes a training measurement: the iteration count and the
// Fig 12 optimized DLRM loop. The communication schedule is not part of
// it: it follows the preset (BaselineNoOverlap fuses the gradients into
// one blocking all-reduce, every other preset overlaps per layer), and
// the optimized loop's side stream runs at the paper's 80 GB/s.
type TrainConfig = training.Config

// DefaultTrainConfig returns the paper's two-iteration setup.
func DefaultTrainConfig() TrainConfig { return training.DefaultConfig() }

// TrainResult is a training measurement (compute, exposed communication,
// iteration time).
type TrainResult = exper.TrainResult

// RunTraining measures the given workload on a freshly built system.
func RunTraining(spec Spec, m *Model, tc TrainConfig) (TrainResult, error) {
	res, _, err := exper.RunTraining(spec, m, tc)
	return res, err
}

// Time is simulated time in picoseconds.
type Time = des.Time

// Sizes4 returns the paper's four evaluation sizes (Fig 11): 16, 32, 64
// and 128 NPUs.
func Sizes4() []Topology {
	return []Topology{Torus3(4, 2, 2), Torus3(4, 4, 2), Torus3(4, 4, 4), Torus3(4, 8, 4)}
}

// FastGranularity coarsens chunking for large simulations (fidelity knob;
// see DESIGN.md).
func FastGranularity(spec *Spec) { exper.FastGranularity(spec) }

// Scenario is a declarative experiment: a platform grid, a list of jobs
// and optional assertions (see README.md for the JSON schema).
type Scenario = scenario.Scenario

// ScenarioOptions tunes scenario execution (worker-pool width).
type ScenarioOptions = runner.Options

// ScenarioResults is the deterministic outcome of a scenario run: one
// result per work unit in expansion order, plus assertion outcomes. It
// renders as text tables, JSON or CSV.
type ScenarioResults = runner.Results

// LoadScenario reads and parses a scenario file (call Validate or
// RunScenario to check it).
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// ParseScenario decodes a scenario from JSON.
func ParseScenario(r io.Reader) (*Scenario, error) { return scenario.Parse(r) }

// RunScenario validates the scenario, expands its grid into independent
// work units, executes them on a bounded worker pool and checks the
// assertions. Results are ordered deterministically regardless of the
// worker count.
func RunScenario(sc *Scenario, opts ScenarioOptions) (*ScenarioResults, error) {
	return runner.Run(sc, opts)
}

// RunScenarioContext is RunScenario with cancellation: when ctx is
// canceled mid-run, dispatch stops, in-flight units drain, and the
// partial results (every completed unit, in expansion order, with
// Canceled set) are returned alongside ctx.Err().
func RunScenarioContext(ctx context.Context, sc *Scenario, opts ScenarioOptions) (*ScenarioResults, error) {
	return runner.RunContext(ctx, sc, opts)
}

// ServeConfig tunes the acesim daemon (`acesim serve`): listen address,
// worker-pool width, submission-queue bound.
type ServeConfig = serve.Config

// Server is the simulator-as-a-service daemon: an HTTP control plane
// over a bounded cross-scenario scheduler and a content-addressed
// result cache. See DESIGN.md, "Serving layer".
type Server = serve.Server

// NewServer builds a daemon from cfg; call Start to listen and Shutdown
// to drain gracefully.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// UnitCacheKey computes the content address of one expanded work unit —
// the SHA-256 of its canonical field-ordered spec plus the code-version
// stamp — as used by the serving layer's result cache.
func UnitCacheKey(u scenario.Unit, traced bool, version string) (string, error) {
	return serve.UnitKey(u, traced, version)
}

// Graph is a workload execution graph: a DAG of compute kernels,
// collective operations and point-to-point transfers that the graph
// executor replays on any platform (see DESIGN.md, "Execution-graph IR").
type Graph = graph.Graph

// GraphOp is one node of an execution graph.
type GraphOp = graph.Op

// GraphResult reports a graph run: span, busiest-rank compute, exposed
// communication (incl. pipeline bubbles), and op counts.
type GraphResult = exper.GraphResult

// ModelGraphConfig selects how a workload lowers into a graph
// (iterations, overlap vs fused-blocking, the Fig 12 DLRM optimization).
type ModelGraphConfig = graph.ModelConfig

// PipelineConfig describes a pipeline- or hybrid-parallel synthesis:
// stages over contiguous rank slabs, microbatched kernels, inter-stage
// activations as routed point-to-point transfers, per-stage group
// all-reduces for the data-parallel replicas.
type PipelineConfig = graph.PipelineConfig

// PipeSchedule selects the microbatch schedule of a synthesized pipeline.
type PipeSchedule = graph.PipeSchedule

// Pipeline schedules: GPipe (blocking fused all-reduce) and 1F1B
// (interleaved, per-layer all-reduces overlapped with the drain and the
// next iteration's forward).
const (
	GPipe    = graph.GPipe
	OneFOneB = graph.OneFOneB
)

// LoadGraph reads, parses and validates a JSON graph file.
func LoadGraph(path string) (*Graph, error) { return graph.Load(path) }

// ParseGraph decodes and validates a JSON graph.
func ParseGraph(r io.Reader) (*Graph, error) { return graph.Parse(r) }

// LowerModel lowers a workload into the execution-graph IR — the same
// per-layer program RunTraining executes, as an inspectable graph.
func LowerModel(m *Model, cfg ModelGraphConfig, ranks int) (*Graph, error) {
	return graph.FromModel(m, cfg, ranks)
}

// SynthPipeline synthesizes a pipeline-parallel (or hybrid
// data+pipeline) execution graph from a layer-stack workload.
func SynthPipeline(cfg PipelineConfig) (*Graph, error) { return graph.Pipeline(cfg) }

// RunGraph executes a workload graph on a freshly built platform.
func RunGraph(spec Spec, g *Graph) (GraphResult, error) { return exper.RunGraph(spec, g) }

// Partition is a contiguous sub-torus carve-out of a fabric, used to
// isolate concurrent jobs on private slices of a platform.
type Partition = noc.Partition

// ParsePartition parses a "<shape>@<coords>" carve-out (or a bare
// shape, anchored at the origin) inside the given fabric.
func ParsePartition(full Topology, s string) (Partition, error) {
	return noc.ParsePartition(full, s)
}

// InterferenceJob is one concurrent job of a multi-job run: a training
// workload or a standing collective stream, placed on the shared full
// fabric (nil Part) or a disjoint sub-torus partition.
type InterferenceJob = exper.InterferenceJob

// StreamSpec describes a standing collective stream (Count collectives
// of Bytes each, issued back-to-back per node).
type StreamSpec = exper.StreamSpec

// InterferenceResult reports each job's co-run completion time against
// its solo baseline on the identical placement.
type InterferenceResult = exper.InterferenceResult

// RunInterference co-runs N jobs on one platform and reports per-job
// slowdown vs solo. Disjoint partitions measure 1.0 (no shared
// resources); shared placements contend for compute, endpoints and
// links. See EXPERIMENTS.md ("Interference and isolation methodology").
func RunInterference(spec Spec, jobs []InterferenceJob) (InterferenceResult, error) {
	return exper.Interference(spec, jobs)
}
