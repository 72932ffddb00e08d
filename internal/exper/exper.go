// Package exper implements the experiment harness: one runner per table
// and figure of the paper's evaluation (see DESIGN.md for the index).
// Each runner builds fresh systems via the system package, drives the
// simulation, and returns both structured rows and a formatted table.
package exper

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/power"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// PowerReport bundles a run's energy breakdown with its windowed power
// timeline. Runners attach it to their results when the spec enables
// energy accounting; it is nil otherwise.
type PowerReport struct {
	Breakdown power.Breakdown
	Sampler   *power.Sampler
	Makespan  des.Time
}

// powerReport snapshots a system's energy accounting after its run
// (and after FoldHybrid), or returns nil when accounting is off.
func powerReport(s *system.System) *PowerReport {
	b, ok := s.PowerReport()
	if !ok {
		return nil
	}
	return &PowerReport{Breakdown: b, Sampler: s.Sampler, Makespan: s.Eng.Now()}
}

// CollectiveResult summarizes one standalone collective run.
type CollectiveResult struct {
	Preset       system.Preset
	Topo         noc.Topology
	Bytes        int64
	Duration     des.Time
	EffGBpsNode  float64 // injected bytes / node / duration
	ReadsNode    int64   // HBM comm reads at node 0
	WritesNode   int64   // HBM comm writes at node 0
	WireBytes    int64
	InjectedNode int64
	// Events is the number of discrete events the engine executed for the
	// run: a simulator-cost figure, not a paper metric.
	Events uint64
	// Recovery reports what the fault-recovery path did (zero-valued on
	// fault-free runs).
	Recovery noc.RecoveryStats
	// Hybrid reports the fast path's engagement and refusal reasons.
	Hybrid collectives.HybridStats
	// Power is the energy/power report (nil when accounting is off).
	Power *PowerReport
}

// RunCollective executes one collective of the given kind and payload on
// every node of a freshly built system and reports aggregate metrics.
func RunCollective(spec system.Spec, kind collectives.Kind, bytes int64) (CollectiveResult, error) {
	s, err := system.Build(spec)
	if err != nil {
		return CollectiveResult{}, err
	}
	plan := collectives.HierarchicalAllReduce(spec.Topo)
	if kind == collectives.AllToAll {
		plan = collectives.DirectAllToAll(spec.Topo.N())
	}
	// A fully degenerate fabric (single node) yields an empty plan; fail
	// with an error instead of tripping the runtime's panic contract.
	if err := plan.Validate(); err != nil {
		return CollectiveResult{}, fmt.Errorf("exper: %s on %s: %w", kind, spec.Topo, err)
	}
	cs := collectives.Spec{Kind: kind, Bytes: bytes, Plan: plan, Name: kind.String()}
	done := 0
	// Track the collective handle issued to each node rather than only
	// the last one: the runtime happens to dedupe symmetric issues onto
	// one object, but completion must be read through each node's own
	// handle, not an aliasing accident.
	colls := make([]*collectives.Collective, s.RT.Nodes())
	for i := range colls {
		colls[i] = s.RT.Issue(noc.NodeID(i), cs, func() { done++ })
	}
	s.Eng.Run()
	s.FoldHybrid()
	if done != s.RT.Nodes() {
		// Wedged runs (a link that never came back) drain gracefully: the
		// incomplete collective is reported here, with the recovery state
		// in the diagnosis.
		return CollectiveResult{}, fmt.Errorf("exper: collective finished on %d/%d nodes (%d transfers parked)",
			done, s.RT.Nodes(), s.Net.ParkedTransfers())
	}
	var last des.Time
	for i, coll := range colls {
		if t := coll.CompleteAt(noc.NodeID(i)); t > last {
			last = t
		}
	}
	n := int64(spec.Topo.N())
	injectedNode := s.Net.InjectedBytes() / n
	return CollectiveResult{
		Preset:       spec.Preset,
		Topo:         spec.Topo,
		Bytes:        bytes,
		Duration:     last,
		EffGBpsNode:  des.Rate(injectedNode, last),
		ReadsNode:    s.Nodes[0].CommMem.Meter.Total(),
		WritesNode:   s.Nodes[0].WriteMeter.Total(),
		WireBytes:    s.Net.TotalWireBytes(),
		InjectedNode: injectedNode,
		Events:       s.Eng.Steps() + s.RT.HybridStats().ShadowSteps,
		Recovery:     s.Net.Recovery(),
		Hybrid:       s.RT.HybridStats(),
		Power:        powerReport(s),
	}, nil
}

// TrainResult couples a workload run with its configuration.
type TrainResult struct {
	Preset   system.Preset
	Topo     noc.Topology
	Workload string
	training.Result
	// Recovery reports what the fault-recovery path did (zero-valued on
	// fault-free runs).
	Recovery noc.RecoveryStats
	// Hybrid reports the fast path's engagement and refusal reasons.
	Hybrid collectives.HybridStats
	// Power is the energy/power report (nil when accounting is off).
	Power *PowerReport
}

// runJob is the one run sequence of every single-job experiment: build a
// platform for spec, start the job on its graph executor, let a
// job-departure event cancel it, drive the engine to completion and fold
// an engaged hybrid shadow's statistics back. The caller collects the
// job's result from the returned launch and system.
func runJob[L interface{ Cancel() }](spec system.Spec, start func(*graph.Executor) (L, error)) (*system.System, L, error) {
	var none L
	s, err := system.Build(spec)
	if err != nil {
		return nil, none, err
	}
	l, err := start(s.Executor())
	if err != nil {
		return nil, none, err
	}
	s.OnDepart(l.Cancel)
	s.Eng.Run()
	s.FoldHybrid()
	return s, l, nil
}

// RunTraining executes the paper's two-iteration training measurement for
// one workload on one system configuration, under the preset's Table VI
// schedule. The launch registers for job-departure events, so an event
// track can cancel the run mid-flight.
func RunTraining(spec system.Spec, m *workload.Model, tc training.Config) (TrainResult, *system.System, error) {
	s, l, err := runJob(spec, func(x *graph.Executor) (*training.Launch, error) {
		return training.Start(x, m, spec.Schedule(), tc)
	})
	if err != nil {
		return TrainResult{}, nil, err
	}
	res, err := l.Result()
	if err != nil {
		return TrainResult{}, nil, err
	}
	return TrainResult{
		Preset:   spec.Preset,
		Topo:     spec.Topo,
		Workload: m.Name,
		Result:   res,
		Recovery: s.Net.Recovery(),
		Hybrid:   s.RT.HybridStats(),
		Power:    powerReport(s),
	}, s, nil
}

// FastGranularity coarsens chunking to keep large simulations tractable
// without changing who-wins shapes (DESIGN.md, Table III note): chunk
// target 256 KiB, at most 24 chunks per collective. ACE's SRAM partition
// ceiling still applies on top of this.
func FastGranularity(spec *system.Spec) {
	spec.Coll.ChunkBytes = 256 << 10
	spec.Coll.MaxChunks = 24
}
