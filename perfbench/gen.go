package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"acesim/internal/scenario"
)

// defaultSeed is the seed whose simulated results are pinned by the
// digests in digests.go.
const defaultSeed = 1

// newRand returns the generator's random stream for one seed. Streams
// keep workloads independent: a new draw in one cannot shift another.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// mbBetween draws a payload in [lo, hi] MB on a quarter-MB grid.
func mbBetween(r *rand.Rand, lo, hi float64) float64 {
	return lo + float64(r.IntN(int((hi-lo)*4)+1))/4
}

func assert(metric, op string, v float64, kind scenario.JobKind) scenario.Assertion {
	return scenario.Assertion{Metric: metric, Op: op, Value: v, Kind: kind}
}

// gridScenarios is the DES grid shared by des-sweep and hybrid-sweep:
// all-reduce and all-to-all payloads drawn by seed on 4x2x2 and 4x4x2,
// and ResNet-50/GNMT/DLRM training on 4x2x2, each under BaselineCommOpt
// and ACE. The payload bands keep every collective at the chunk cap of
// fast granularity, so the work per seed is nearly constant.
func gridScenarios(seed uint64, engine string) []*scenario.Scenario {
	r := newRand(seed, 1)
	plat := func(toruses ...string) *scenario.Platform {
		return &scenario.Platform{
			Toruses:         toruses,
			Presets:         []string{"BaselineCommOpt", "ACE"},
			FastGranularity: true,
			Engine:          engine,
		}
	}
	colls := &scenario.Scenario{
		Name:     "grid-collectives",
		Platform: plat("4x2x2", "4x4x2"),
		Jobs: []scenario.Job{
			{Kind: scenario.KindCollective, Collective: "allreduce",
				PayloadsMB: []float64{mbBetween(r, 8, 12), mbBetween(r, 12.25, 16)}},
			{Kind: scenario.KindCollective, Collective: "alltoall",
				PayloadsMB: []float64{mbBetween(r, 4, 6)}},
		},
		Assertions: []scenario.Assertion{
			assert("duration_us", ">", 0, scenario.KindCollective),
			assert("eff_gbps_node", ">", 0, scenario.KindCollective),
		},
	}
	train := &scenario.Scenario{
		Name:     "grid-training",
		Platform: plat("4x2x2"),
		Jobs: []scenario.Job{{Kind: scenario.KindTraining,
			Workloads: []string{"resnet50", "gnmt", "dlrm"}, Iterations: 1}},
		Assertions: []scenario.Assertion{
			assert("iter_time_us", ">", 0, scenario.KindTraining),
			assert("exposed_comm_frac", "<", 1, scenario.KindTraining),
		},
	}
	return []*scenario.Scenario{colls, train}
}

// desSweep is the DES grid at fast granularity.
func desSweep(seed uint64) []*scenario.Scenario { return gridScenarios(seed, "") }

// hybridSweep is the same seeded grid under the hybrid engine, plus
// training and a 1F1B pipeline graph at 32 and 64 NPUs, which only the
// hybrid engine makes affordable. Its first scenarios expand to exactly
// des-sweep's units, so their results must match byte for byte.
func hybridSweep(seed uint64) []*scenario.Scenario {
	scale := &scenario.Scenario{
		Name: "hybrid-scale",
		Platform: &scenario.Platform{
			Toruses:         []string{"4x4x2", "4x4x4"},
			Presets:         []string{"BaselineCommOpt", "ACE"},
			FastGranularity: true,
			Engine:          "hybrid",
		},
		Jobs: []scenario.Job{
			{Kind: scenario.KindTraining, Workloads: []string{"resnet50", "gnmt"}, Iterations: 1},
			{Kind: scenario.KindGraph, Pipeline: &scenario.PipelineSpec{
				Workload: "gnmt", Stages: 4, Microbatches: 4, Schedule: "1f1b"}},
		},
		Assertions: []scenario.Assertion{
			assert("iter_time_us", ">", 0, scenario.KindTraining),
			assert("graph_span_us", ">", 0, scenario.KindGraph),
		},
	}
	return append(gridScenarios(seed, "hybrid"), scale)
}

// observedSweep is a small DES sweep with every observability sink on:
// the Fig 4 microbenchmark at a seeded payload, and ACE vs
// BaselineNoOverlap DLRM training with tracing and energy accounting.
func observedSweep(seed uint64) []*scenario.Scenario {
	r := newRand(seed, 2)
	fig4 := &scenario.Scenario{
		Name: "observed-fig4",
		Jobs: []scenario.Job{{Kind: scenario.KindMicrobench,
			PayloadsMB: []float64{mbBetween(r, 4, 8)},
			Kernels:    []scenario.Kernel{{GEMMN: 1000}, {EmbBatch: 10000}}}},
		Trace: &scenario.TraceSpec{Enabled: true},
		Assertions: []scenario.Assertion{
			assert("slowdown", ">=", 1, scenario.KindMicrobench),
			assert("overlap_frac", ">", 0, ""),
		},
	}
	dlrm := &scenario.Scenario{
		Name: "observed-dlrm",
		Platform: &scenario.Platform{
			Toruses:         []string{"4x2x2"},
			Presets:         []string{"BaselineNoOverlap", "ACE"},
			FastGranularity: true,
		},
		Jobs:  []scenario.Job{{Kind: scenario.KindTraining, Workloads: []string{"dlrm"}, Iterations: 1}},
		Trace: &scenario.TraceSpec{Enabled: true},
		Power: &scenario.PowerSpec{Enabled: true},
		Assertions: []scenario.Assertion{
			assert("energy_total_j", ">", 0, scenario.KindTraining),
			assert("peak_power_w", ">", 0, scenario.KindTraining),
			assert("trace_spans", ">", 0, scenario.KindTraining),
		},
	}
	return []*scenario.Scenario{fig4, dlrm}
}

// Serve-mixed stream shape: submissions per pass, half of them exact
// repeats of the warm set.
const (
	coldSubmissions = 100
	warmRepeats     = 100
)

// serveMix is the seeded traffic of serve-mixed.
type serveMix struct {
	// warm is prefilled during set-up; repeats of it are all cache hits.
	warm []*scenario.Scenario
	// cold submissions carry units no other submission shares, so every
	// one of their units is a cache miss.
	cold []*scenario.Scenario
	// order is the stream: index i < len(warm) names warm[i], the rest
	// cold[i-len(warm)].
	order []int
}

// serveMixed generates the stream. Cold points are small hybrid or
// analytic all-reduces with payloads unique across the whole stream.
func serveMixed(seed uint64) serveMix {
	r := newRand(seed, 3)
	used := map[int64]bool{}
	fresh := func() int64 {
		for {
			b := int64(4<<20 + r.IntN(8<<20))
			if !used[b] {
				used[b] = true
				return b
			}
		}
	}
	coll := func(name, engine, preset, topo, kind string, n int) *scenario.Scenario {
		job := scenario.Job{Kind: scenario.KindCollective, Collective: kind}
		for i := 0; i < n; i++ {
			job.PayloadBytes = append(job.PayloadBytes, fresh())
		}
		return &scenario.Scenario{
			Name: name,
			Platform: &scenario.Platform{Toruses: []string{topo},
				Presets: []string{preset}, FastGranularity: true, Engine: engine},
			Jobs:       []scenario.Job{job},
			Assertions: []scenario.Assertion{assert("duration_us", ">", 0, scenario.KindCollective)},
		}
	}
	hybridACE := func(name string, job scenario.Job, a scenario.Assertion) *scenario.Scenario {
		return &scenario.Scenario{
			Name: name,
			Platform: &scenario.Platform{Toruses: []string{"4x2x2"}, Presets: []string{"ACE"},
				FastGranularity: true, Engine: "hybrid"},
			Jobs:       []scenario.Job{job},
			Assertions: []scenario.Assertion{a},
		}
	}
	m := serveMix{warm: []*scenario.Scenario{
		coll("warm-0", "hybrid", "ACE", "4x2x2", "allreduce", 2),
		coll("warm-1", "analytic", "BaselineCommOpt", "4x4x2", "allreduce", 2),
		coll("warm-2", "hybrid", "BaselineCommOpt", "4x2x2", "alltoall", 1),
		coll("warm-3", "analytic", "ACE", "4x2x2", "allreduce", 2),
		hybridACE("warm-4", scenario.Job{Kind: scenario.KindTraining, Workloads: []string{"resnet50"}, Iterations: 1},
			assert("iter_time_us", ">", 0, scenario.KindTraining)),
		hybridACE("warm-5", scenario.Job{Kind: scenario.KindGraph, Pipeline: &scenario.PipelineSpec{
			Workload: "gnmt", Stages: 4, Microbatches: 4, Schedule: "1f1b"}},
			assert("graph_span_us", ">", 0, scenario.KindGraph)),
	}}
	engines := []string{"hybrid", "analytic"}
	presets := []string{"ACE", "BaselineCommOpt"}
	for i := 0; i < coldSubmissions; i++ {
		m.cold = append(m.cold, coll(fmt.Sprintf("cold-%d", i),
			engines[r.IntN(2)], presets[r.IntN(2)], "4x2x2", "allreduce", 2))
	}
	for i := 0; i < warmRepeats; i++ {
		m.order = append(m.order, r.IntN(len(m.warm)))
	}
	for i := range m.cold {
		m.order = append(m.order, len(m.warm)+i)
	}
	r.Shuffle(len(m.order), func(i, j int) { m.order[i], m.order[j] = m.order[j], m.order[i] })
	return m
}

// marshalAll renders scenarios as the JSON documents the program reads.
func marshalAll(scs []*scenario.Scenario) ([][]byte, error) {
	out := make([][]byte, len(scs))
	for i, sc := range scs {
		b, err := json.Marshal(sc)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", sc.Name, err)
		}
		out[i] = b
	}
	return out, nil
}
