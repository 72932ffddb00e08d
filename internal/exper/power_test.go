package exper

import (
	"math/rand"
	"testing"

	"acesim/internal/collectives"
	"acesim/internal/noc"
	"acesim/internal/power"
	"acesim/internal/stats"
	"acesim/internal/system"
)

// poweredSpec builds a spec with energy accounting on at the preset's
// default coefficients.
func poweredSpec(topo noc.Topology, p system.Preset) system.Spec {
	spec := system.NewSpec(topo, p)
	spec.Power = &power.Config{Coeff: system.PowerDefaults(p)}
	return spec
}

// samePowerReport requires two runs' energy accounting to agree to the
// last bit: every Breakdown field (they are plain float64s, so == is
// exact) and every femtojoule window of the sampled timeline.
func samePowerReport(t *testing.T, label string, d, h *PowerReport) {
	t.Helper()
	if d == nil || h == nil {
		t.Fatalf("%s: power report missing (des %v, other %v)", label, d != nil, h != nil)
	}
	if d.Breakdown != h.Breakdown {
		t.Fatalf("%s: energy breakdown diverged:\ndes   %+v\nother %+v", label, d.Breakdown, h.Breakdown)
	}
	if d.Makespan != h.Makespan {
		t.Fatalf("%s: makespan %v != %v", label, d.Makespan, h.Makespan)
	}
	groups := []struct {
		name string
		a, b *stats.PowerTrace
	}{
		{"compute", d.Sampler.Compute, h.Sampler.Compute},
		{"hbm", d.Sampler.HBM, h.Sampler.HBM},
		{"fabric", d.Sampler.Fabric, h.Sampler.Fabric},
	}
	for _, g := range groups {
		if g.a.Len() != g.b.Len() {
			t.Fatalf("%s: %s timeline length %d != %d", label, g.name, g.a.Len(), g.b.Len())
		}
		for b := 0; b < g.a.Len(); b++ {
			if g.a.EnergyFJ(b) != g.b.EnergyFJ(b) {
				t.Fatalf("%s: %s window %d: %d fJ != %d fJ",
					label, g.name, b, g.a.EnergyFJ(b), g.b.EnergyFJ(b))
			}
		}
	}
	if d.Sampler.StaticW != h.Sampler.StaticW {
		t.Fatalf("%s: static draw %v != %v", label, d.Sampler.StaticW, h.Sampler.StaticW)
	}
}

// TestPowerHybridMatchesDES pins the engine-independence contract on
// the paper's 16-NPU torus: the hybrid fast path reports bit-identical
// joules and a bit-identical power timeline versus full DES.
func TestPowerHybridMatchesDES(t *testing.T) {
	for _, preset := range []system.Preset{system.BaselineCommOpt, system.ACE, system.Ideal} {
		spec := poweredSpec(noc.Torus3(4, 2, 2), preset)
		d, h := runPair(t, spec, collectives.AllReduce, 8<<20, collectives.EngineHybrid)
		if !h.Hybrid.Engaged {
			t.Fatalf("%s: hybrid did not engage: %+v", preset, h.Hybrid)
		}
		samePowerReport(t, preset.String(), d.Power, h.Power)
		if d.Power.Breakdown.TotalJ <= 0 || d.Power.Breakdown.PeakW <= 0 {
			t.Fatalf("%s: degenerate breakdown %+v", preset, d.Power.Breakdown)
		}
	}
}

// TestPowerHybridRandomTopologies is the randomized sweep of the same
// contract: random 1D-4D tori, presets and payloads, each requiring the
// hybrid energy accounting to be bit-identical with DES.
func TestPowerHybridRandomTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep is long")
	}
	rng := rand.New(rand.NewSource(137))
	ran := 0
	for ran < 10 {
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
		bytes := int64(1+rng.Intn(8)) << 20
		spec := poweredSpec(topo, preset)
		d, h := runPair(t, spec, collectives.AllReduce, bytes, collectives.EngineHybrid)
		if !h.Hybrid.Engaged {
			t.Fatalf("%s %s: hybrid did not engage: %+v", topo, preset, h.Hybrid)
		}
		samePowerReport(t, topo.String()+" "+preset.String(), d.Power, h.Power)
		ran++
	}
}

// TestPowerAnalyticDivergence documents where the analytic engine's
// energy accounting is exact and where it diverges by construction:
// wire bytes are modeled exactly (energy_link_j matches DES to the
// bit), but the endpoint servers never run, so the HBM and ACE meters
// — and their joules — read zero.
func TestPowerAnalyticDivergence(t *testing.T) {
	spec := poweredSpec(noc.Torus3(4, 2, 2), system.ACE)
	d, a := runPair(t, spec, collectives.AllReduce, 8<<20, collectives.EngineAnalytic)
	if !a.Hybrid.Engaged {
		t.Fatalf("analytic did not engage: %+v", a.Hybrid)
	}
	if a.Power == nil || d.Power == nil {
		t.Fatal("power report missing")
	}
	if a.Power.Breakdown.LinkJ != d.Power.Breakdown.LinkJ {
		t.Fatalf("link energy should be exact: analytic %v != des %v",
			a.Power.Breakdown.LinkJ, d.Power.Breakdown.LinkJ)
	}
	if d.Power.Breakdown.HBMJ <= 0 || d.Power.Breakdown.ACEJ <= 0 {
		t.Fatalf("des endpoint energy degenerate: %+v", d.Power.Breakdown)
	}
	if a.Power.Breakdown.HBMJ != 0 || a.Power.Breakdown.ACEJ != 0 {
		t.Fatalf("analytic endpoint meters should read zero joules: %+v", a.Power.Breakdown)
	}
}

// TestPowerMultiJob covers both multi-job aggregation modes: shared
// mode reports the substrate system's accounting directly; partitioned
// mode sums every tenant's lifetime meters and folds their samplers
// onto one timeline. Both must produce a full, positive breakdown.
func TestPowerMultiJob(t *testing.T) {
	full := noc.Torus3(4, 2, 2)
	stream := func(name string, part *noc.Partition) InterferenceJob {
		return InterferenceJob{Name: name, Part: part,
			Stream: StreamSpec{Kind: collectives.AllReduce, Bytes: 4 << 20, Count: 4}}
	}
	cases := map[string][]InterferenceJob{
		"shared": {stream("a", nil), stream("b", nil)},
		"partitioned": {
			stream("a", &noc.Partition{Full: full, Shape: noc.Torus3(4, 1, 2)}),
			stream("b", &noc.Partition{Full: full, Shape: noc.Torus3(4, 1, 2), Origin: []int{0, 1, 0}}),
		},
	}
	for name, jobs := range cases {
		spec := poweredSpec(full, system.ACE)
		res, err := Interference(spec, jobs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Power == nil {
			t.Fatalf("%s: multi-job run carries no power report", name)
		}
		b := res.Power.Breakdown
		if b.TotalJ <= 0 || b.PeakW <= 0 || b.StaticJ <= 0 || b.LinkJ <= 0 {
			t.Fatalf("%s: degenerate breakdown %+v", name, b)
		}
		if b.TotalJ != b.ComputeJ+b.HBMJ+b.ACEJ+b.LinkJ+b.StaticJ {
			t.Fatalf("%s: breakdown does not sum: %+v", name, b)
		}
		// The tenants' leakage must fold onto one timeline: the static
		// draw covers all 16 NPUs in both modes.
		if res.Power.Sampler.StaticW <= 0 {
			t.Fatalf("%s: folded sampler lost the static draw", name)
		}
	}
}

// TestPowerDisabledByDefault pins the zero-overhead contract at the
// harness level: without a power config there is no report at all.
func TestPowerDisabledByDefault(t *testing.T) {
	spec := system.NewSpec(noc.Torus3(4, 2, 2), system.ACE)
	res, err := RunCollective(spec, collectives.AllReduce, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power != nil {
		t.Fatalf("power report attached without a power config: %+v", res.Power.Breakdown)
	}
}
