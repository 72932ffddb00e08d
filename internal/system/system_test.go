package system

import (
	"testing"

	"acesim/internal/noc"
	"acesim/internal/training"
)

func TestPresetNamesRoundTrip(t *testing.T) {
	for _, p := range Presets() {
		got, err := ParsePreset(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %s: %v", p, err)
		}
	}
	if _, err := ParsePreset("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if Preset(99).String() != "unknown" {
		t.Fatal("unknown preset name")
	}
}

func TestNewSpecTableVI(t *testing.T) {
	tor := noc.Torus3(4, 2, 2)
	cases := []struct {
		p    Preset
		mem  float64
		sms  int
		excl bool
	}{
		{BaselineNoOverlap, 900, 80, true},
		{BaselineCommOpt, 450, 6, false},
		{BaselineCompOpt, 128, 2, false},
		{ACE, 128, 0, false},
		{Ideal, 0, 0, false},
	}
	for _, c := range cases {
		s := NewSpec(tor, c.p)
		if s.NPU.CommMemGBps != c.mem || s.NPU.CommSMs != c.sms || s.NPU.ExclusiveComm != c.excl {
			t.Fatalf("%s: %+v", c.p, s.NPU)
		}
	}
	if NewSpec(tor, BaselineNoOverlap).Schedule() != training.NoOverlap {
		t.Fatal("NoOverlap schedule wrong")
	}
	if NewSpec(tor, ACE).Schedule() != training.Overlap {
		t.Fatal("ACE schedule wrong")
	}
}

func TestBuildShapes(t *testing.T) {
	tor := noc.Torus3(4, 2, 2)
	for _, p := range Presets() {
		s, err := Build(NewSpec(tor, p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(s.Nodes) != 16 || len(s.Eps) != 16 || len(s.Computes) != 16 {
			t.Fatalf("%s: wrong shapes", p)
		}
		if p == ACE && len(s.ACEs) != 16 {
			t.Fatalf("ACE engines missing")
		}
		if p != ACE && len(s.ACEs) != 0 {
			t.Fatalf("%s: unexpected ACE engines", p)
		}
	}
}

func TestBuildInvalid(t *testing.T) {
	if _, err := Build(NewSpec(noc.Torus3(0, 1, 1), ACE)); err == nil {
		t.Fatal("invalid torus accepted")
	}
	// A negative link bandwidth used to build and run with meaningless
	// timings; Spec.Validate now rejects it before anything is built.
	for name, mutate := range map[string]func(*Spec){
		"negative intra link": func(s *Spec) { s.Intra.GBps = -1 },
		"zero inter link":     func(s *Spec) { s.Inter.GBps = 0 },
		"comm SMs over total": func(s *Spec) { s.NPU.CommSMs = 500 },
		"no ACE FSMs":         func(s *Spec) { s.ACE.FSMs = 0 },
	} {
		spec := NewSpec(noc.Torus3(4, 2, 2), BaselineCommOpt)
		mutate(&spec)
		if _, err := Build(spec); err == nil {
			t.Errorf("%s: built an invalid spec", name)
		}
	}
}

func TestACEPartitionSizing(t *testing.T) {
	spec := NewSpec(noc.Torus3(4, 4, 4), ACE)
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	parts := s.Spec.ACE.Partitions
	if len(parts) != 5 {
		t.Fatalf("partitions = %d, want phases+1", len(parts))
	}
	// The local reduce-scatter phase moves the most data over the widest
	// links: it must own the largest partition (Section IV-I heuristic).
	for i := 1; i < len(parts); i++ {
		if parts[i] > parts[0] {
			t.Fatalf("partition 0 (%d) should be largest, got parts=%v", parts[0], parts)
		}
	}
	// Every chunk must fit its per-phase residency with double
	// buffering.
	if s.Spec.Coll.MaxChunkBytes <= 0 || s.Spec.Coll.MaxChunkBytes > spec.ACE.SRAMBytes {
		t.Fatalf("max chunk = %d", s.Spec.Coll.MaxChunkBytes)
	}
}

func TestPlansMatchTopology(t *testing.T) {
	s, err := Build(NewSpec(noc.Torus3(4, 8, 4), Ideal))
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Plans()
	if len(pl.AllReduce.Phases) != 4 {
		t.Fatalf("AR plan phases = %d", len(pl.AllReduce.Phases))
	}
	if pl.AllToAll.Phases[0].Ring != 128 {
		t.Fatalf("a2a ring = %d", pl.AllToAll.Phases[0].Ring)
	}
}
