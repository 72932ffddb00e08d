package exper

import (
	"math/rand"
	"testing"

	"acesim/internal/collectives"
	"acesim/internal/fault"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// runPair executes the same collective under DES and the given engine
// and returns both results.
func runPair(t *testing.T, spec system.Spec, kind collectives.Kind, bytes int64,
	engine collectives.Engine) (des, fast CollectiveResult) {
	t.Helper()
	d, err := RunCollective(spec, kind, bytes)
	if err != nil {
		t.Fatalf("des run: %v", err)
	}
	spec.Engine = engine
	f, err := RunCollective(spec, kind, bytes)
	if err != nil {
		t.Fatalf("%s run: %v", engine, err)
	}
	return d, f
}

// TestHybridMatchesDESCollective pins the tentpole contract on the
// paper's 16-NPU torus: an uncontended solo collective completes at the
// identical picosecond under the hybrid fast path, with identical byte
// meters everywhere.
func TestHybridMatchesDESCollective(t *testing.T) {
	for _, preset := range []system.Preset{system.BaselineCommOpt, system.ACE, system.Ideal} {
		for _, kind := range []collectives.Kind{collectives.AllReduce, collectives.AllToAll} {
			spec := system.NewSpec(noc.Torus3(4, 2, 2), preset)
			d, h := runPair(t, spec, kind, 8<<20, collectives.EngineHybrid)
			if !h.Hybrid.Engaged {
				t.Fatalf("%s/%s: hybrid did not engage: %+v", preset, kind, h.Hybrid)
			}
			if d.Duration != h.Duration {
				t.Fatalf("%s/%s: duration %v (des) != %v (hybrid)", preset, kind, d.Duration, h.Duration)
			}
			if d.WireBytes != h.WireBytes || d.InjectedNode != h.InjectedNode {
				t.Fatalf("%s/%s: wire/injected %d/%d != %d/%d",
					preset, kind, d.WireBytes, d.InjectedNode, h.WireBytes, h.InjectedNode)
			}
			if d.ReadsNode != h.ReadsNode || d.WritesNode != h.WritesNode {
				t.Fatalf("%s/%s: reads/writes %d/%d != %d/%d",
					preset, kind, d.ReadsNode, d.WritesNode, h.ReadsNode, h.WritesNode)
			}
			if kind == collectives.AllToAll && h.Hybrid.Blocked["all-to-all"] == 0 {
				t.Fatalf("%s: a2a plan should downgrade the mirror: %+v", preset, h.Hybrid)
			}
		}
	}
}

// TestHybridPropertyRandomTopologies is the randomized exactness sweep:
// >= 20 random 1D-4D topologies mixing wrap and mesh dimensions
// (including size-1 and size-2 dims), each asserting the hybrid
// completion time and byte meters equal full DES exactly.
func TestHybridPropertyRandomTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep is long")
	}
	rng := rand.New(rand.NewSource(71))
	ran := 0
	for ran < 20 {
		dims := 1 + rng.Intn(4)
		topo := noc.Topology{Dims: make([]noc.DimSpec, dims)}
		n := 1
		for d := range topo.Dims {
			topo.Dims[d] = noc.DimSpec{Size: 1 + rng.Intn(4), Wrap: rng.Intn(2) == 0}
			n *= topo.Dims[d].Size
		}
		if n < 2 || n > 32 {
			continue
		}
		preset := []system.Preset{system.BaselineCommOpt, system.ACE}[rng.Intn(2)]
		kind := collectives.AllReduce
		if rng.Intn(4) == 0 {
			kind = collectives.AllToAll
		}
		bytes := int64(1+rng.Intn(8)) << 20
		spec := system.NewSpec(topo, preset)
		d, h := runPair(t, spec, kind, bytes, collectives.EngineHybrid)
		if !h.Hybrid.Engaged {
			t.Fatalf("%s %s/%s: hybrid did not engage: %+v", topo, preset, kind, h.Hybrid)
		}
		if d.Duration != h.Duration {
			t.Fatalf("%s %s/%s %dB: duration %v != %v (stats %+v)",
				topo, preset, kind, bytes, d.Duration, h.Duration, h.Hybrid)
		}
		if d.WireBytes != h.WireBytes || d.InjectedNode != h.InjectedNode ||
			d.ReadsNode != h.ReadsNode || d.WritesNode != h.WritesNode {
			t.Fatalf("%s %s/%s: meters differ: des %+v hybrid %+v", topo, preset, kind, d, h)
		}
		ran++
	}
}

// TestHybridRefusesContention checks the automatic fallbacks: a shared
// multi-job build and a fault track must keep the fast path off, with
// counted reasons, and still produce correct runs.
func TestHybridRefusesContention(t *testing.T) {
	spec := system.NewSpec(noc.Torus3(4, 2, 2), system.ACE)
	spec.Engine = collectives.EngineHybrid
	m, err := system.BuildMulti(spec, []system.JobPlacement{{Name: "a"}, {Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Shared.RT.HybridStats()
	if st.Engaged {
		t.Fatalf("hybrid engaged under shared multijob: %+v", st)
	}
	if st.Blocked["multijob"] == 0 && st.Blocked["multijob-streams"] == 0 {
		t.Fatalf("no multijob refusal recorded: %+v", st)
	}
}

// TestHybridRefusesFaultTrack pins the other mandatory fallback: any
// timed event track keeps the fast path off at build time, with the
// "fault-track" reason counted, and the run still completes under DES.
func TestHybridRefusesFaultTrack(t *testing.T) {
	spec := system.NewSpec(noc.Torus3(4, 2, 2), system.ACE)
	spec.Engine = collectives.EngineHybrid
	spec.Faults = &fault.Track{Events: []fault.Event{
		{AtUs: 5, Action: fault.Straggler, Factor: 2},
	}}
	res, err := RunCollective(spec, collectives.AllReduce, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hybrid.Engaged {
		t.Fatalf("hybrid engaged with a fault track active: %+v", res.Hybrid)
	}
	if res.Hybrid.Blocked["fault-track"] == 0 {
		t.Fatalf("no fault-track refusal recorded: %+v", res.Hybrid)
	}
	if res.Duration <= 0 {
		t.Fatalf("DES fallback produced no run: %+v", res)
	}
}

// TestHybridRefusesPerturbation checks the runtime fallback: a rate
// change before the first issue (the Fig 4 contention window) makes the
// fast path refuse itself with a counted reason.
func TestHybridRefusesPerturbation(t *testing.T) {
	spec := system.NewSpec(noc.Torus3(4, 2, 2), system.ACE)
	spec.Engine = collectives.EngineHybrid
	s, err := system.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Nodes[0].CommMem.SetRate(100)
	plan := collectives.HierarchicalAllReduce(spec.Topo)
	cs := collectives.Spec{Kind: collectives.AllReduce, Bytes: 1 << 20, Plan: plan, Name: "ar"}
	done := 0
	for i := 0; i < s.RT.Nodes(); i++ {
		s.RT.Issue(noc.NodeID(i), cs, func() { done++ })
	}
	s.Eng.Run()
	s.FoldHybrid()
	st := s.RT.HybridStats()
	if st.Engaged {
		t.Fatalf("hybrid engaged after a rate perturbation: %+v", st)
	}
	if st.Blocked["rate-perturbation"] == 0 {
		t.Fatalf("no rate-perturbation refusal recorded: %+v", st)
	}
	if done != s.RT.Nodes() {
		t.Fatalf("DES fallback completed on %d/%d nodes", done, s.RT.Nodes())
	}
}

// TestHybridFig4MatchesDES runs the Section III microbenchmark under
// both engines: the alone run engages the mirror and must be exact; the
// contended run perturbs rates first, so the hybrid build transparently
// degenerates to plain DES and is trivially identical.
func TestHybridFig4MatchesDES(t *testing.T) {
	gemm := GEMMKernel(1000)
	for _, k := range []*Fig4Kernel{nil, &gemm} {
		name := "alone"
		if k != nil {
			name = k.Name
		}
		d, _, err := fig4RunEngine(k, 10<<20, nil, collectives.EngineDES)
		if err != nil {
			t.Fatalf("%s des: %v", name, err)
		}
		h, _, err := fig4RunEngine(k, 10<<20, nil, collectives.EngineHybrid)
		if err != nil {
			t.Fatalf("%s hybrid: %v", name, err)
		}
		if d != h {
			t.Fatalf("%s: duration %v (des) != %v (hybrid)", name, d, h)
		}
	}
}

// TestAnalyticEngineByteExact pins the analytic engine's contract: the
// fabric byte meters are exact (folded from AnalyzeOn per chunk), the
// duration is a positive closed-form estimate, and the endpoint HBM
// meters stay zero — the documented approximation scope.
func TestAnalyticEngineByteExact(t *testing.T) {
	for _, kind := range []collectives.Kind{collectives.AllReduce, collectives.AllToAll} {
		spec := system.NewSpec(noc.Torus3(4, 2, 2), system.ACE)
		d, a := runPair(t, spec, kind, 8<<20, collectives.EngineAnalytic)
		if !a.Hybrid.Engaged || a.Hybrid.Mode != "analytic" {
			t.Fatalf("%s: analytic engine did not engage: %+v", kind, a.Hybrid)
		}
		if a.WireBytes != d.WireBytes || a.InjectedNode != d.InjectedNode {
			t.Fatalf("%s: analytic fabric bytes %d/%d != DES %d/%d",
				kind, a.WireBytes, a.InjectedNode, d.WireBytes, d.InjectedNode)
		}
		if a.Duration <= 0 {
			t.Fatalf("%s: analytic duration %v", kind, a.Duration)
		}
		if a.ReadsNode != 0 || a.WritesNode != 0 {
			t.Fatalf("%s: analytic endpoint meters should be zero, got reads=%d writes=%d",
				kind, a.ReadsNode, a.WritesNode)
		}
	}
}

// TestAnalyzeOnMatchesDESMeters is the mesh-dimension drift regression:
// the chunk-summed AnalyzeOn totals must equal the DES link meters on
// wrap and mesh fabrics alike (the old per-node Analyze silently
// under-counted mesh boundary hops).
func TestAnalyzeOnMatchesDESMeters(t *testing.T) {
	mesh := noc.Topology{Dims: []noc.DimSpec{{Size: 4, Wrap: false}, {Size: 2, Wrap: true}}}
	for _, topo := range []noc.Topology{noc.Torus3(4, 2, 2), mesh} {
		for _, kind := range []collectives.Kind{collectives.AllReduce, collectives.AllToAll} {
			const bytes = 2 << 20 // splits into 32 equal 64 KiB chunks
			spec := system.NewSpec(topo, system.ACE)
			res, err := RunCollective(spec, kind, bytes)
			if err != nil {
				t.Fatal(err)
			}
			plan := collectives.HierarchicalAllReduce(topo)
			if kind == collectives.AllToAll {
				plan = collectives.DirectAllToAll(topo.N())
			}
			var wire, inj int64
			for c := 0; c < 32; c++ {
				ft, err := collectives.AnalyzeOn(topo, plan, bytes/32)
				if err != nil {
					t.Fatal(err)
				}
				wire += ft.Wire
				inj += ft.Injected
			}
			n := int64(topo.N())
			if wire != res.WireBytes || inj != res.InjectedNode*n {
				t.Fatalf("%s %s: AnalyzeOn wire/injected %d/%d != DES meters %d/%d",
					topo, kind, wire, inj, res.WireBytes, res.InjectedNode*n)
			}
		}
	}
}

// TestHybridGraphPipelineMatchesDES runs two graphs under both engines:
// the synthesized pipeline (group collectives plus inter-stage p2p
// sends, which downgrade the mirror) and a ResNet-50 training graph
// lowered by graph.FromModel at fast granularity. The results stay
// exact on both.
func TestHybridGraphPipelineMatchesDES(t *testing.T) {
	topo := noc.Torus3(4, 2, 2)
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
		fast  bool
		p2p   bool
	}{
		{"pipeline-1f1b", func() (*graph.Graph, error) {
			return graph.Pipeline(graph.PipelineConfig{
				Model:        workload.ResNet50(workload.ResNet50Batch),
				Ranks:        topo.N(),
				Stages:       4,
				Microbatches: 4,
				Schedule:     graph.OneFOneB,
			})
		}, false, true},
		{"lowered-resnet50", func() (*graph.Graph, error) {
			return graph.FromModel(workload.ResNet50(workload.ResNet50Batch),
				graph.ModelConfig{Iterations: 2, Overlap: true}, topo.N())
		}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := system.NewSpec(topo, system.ACE)
			if tc.fast {
				FastGranularity(&spec)
			}
			run := func() GraphResult {
				g, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunGraph(spec, g)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			d := run()
			spec.Engine = collectives.EngineHybrid
			h := run()
			if !h.Hybrid.Engaged {
				t.Fatalf("hybrid did not engage: %+v", h.Hybrid)
			}
			if tc.p2p && h.Hybrid.P2P == 0 {
				t.Fatalf("pipeline ran no p2p transfers through the fast path: %+v", h.Hybrid)
			}
			if d.Span != h.Span || d.Exposed != h.Exposed {
				t.Fatalf("span/exposed %v/%v (des) != %v/%v (hybrid), stats %+v",
					d.Span, d.Exposed, h.Span, h.Exposed, h.Hybrid)
			}
		})
	}
}

// TestHybridTrainingMatchesDES runs a small training workload under both
// engines and pins identical iteration times.
func TestHybridTrainingMatchesDES(t *testing.T) {
	spec := system.NewSpec(noc.Torus3(4, 2, 2), system.ACE)
	FastGranularity(&spec)
	m := workload.ResNet50(workload.ResNet50Batch)
	tc := training.DefaultConfig()
	d, _, err := RunTraining(spec, m, tc)
	if err != nil {
		t.Fatal(err)
	}
	spec.Engine = collectives.EngineHybrid
	h, _, err := RunTraining(spec, m, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Hybrid.Engaged {
		t.Fatalf("hybrid did not engage: %+v", h.Hybrid)
	}
	if d.IterTime != h.IterTime {
		t.Fatalf("iteration time %v (des) != %v (hybrid), stats %+v", d.IterTime, h.IterTime, h.Hybrid)
	}
}
