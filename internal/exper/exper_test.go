package exper

import (
	"strings"
	"testing"

	"acesim/internal/collectives"
	"acesim/internal/hwmodel"
	"acesim/internal/noc"
	"acesim/internal/system"
)

var torus16 = noc.Torus3(4, 2, 2)

func TestRunCollectiveBasics(t *testing.T) {
	res, err := RunCollective(system.NewSpec(torus16, system.Ideal), collectives.AllReduce, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 0 || res.EffGBpsNode <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// 4x2x2 hierarchical AR injects 2 bytes per payload byte.
	if got, want := res.InjectedNode, int64(2*16<<20); got != want {
		t.Fatalf("injected/node = %d, want %d", got, want)
	}
}

func TestAnalyticVIA(t *testing.T) {
	rows, _, err := AnalyticVIA([]noc.Topology{noc.Torus3(4, 4, 4)}, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.InjectedPerByte != 2.25 {
		t.Fatalf("injected/byte = %v, want 2.25", r.InjectedPerByte)
	}
	if r.BaselineReadRatio != 1.5 {
		t.Fatalf("reads/sent = %v, want 1.5", r.BaselineReadRatio)
	}
	if r.MemBWReduction < 3.3 || r.MemBWReduction > 3.5 {
		t.Fatalf("memBW reduction = %v", r.MemBWReduction)
	}
	// The simulator's ACE meter reads exactly the payload.
	if r.MeasuredACE != 4<<20 {
		t.Fatalf("measured ACE reads = %d", r.MeasuredACE)
	}
	// Baseline measured reads match the analytic ratio within chunk
	// rounding.
	ratio := float64(r.MeasuredBaseline) / float64(r.MeasuredACE)
	if ratio < 3.3 || ratio > 3.5 {
		t.Fatalf("measured reduction = %v", ratio)
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	total := hwmodel.Total(hwmodel.DefaultConfig())
	// Paper Table IV prints 5,339,031 um^2 / 4,255 mW as the total; its
	// own component rows sum to 5,290,695 / 4,231.9. We reproduce the
	// component sum (within 1% of either).
	if total.AreaUM2 < 5.25e6 || total.AreaUM2 > 5.35e6 {
		t.Fatalf("total area = %v", total.AreaUM2)
	}
	if total.PowerMW < 4200 || total.PowerMW > 4300 {
		t.Fatalf("total power = %v", total.PowerMW)
	}
	areaFrac, powerFrac := hwmodel.OverheadVsAccelerator(hwmodel.DefaultConfig())
	if areaFrac > 0.02 || powerFrac > 0.02 {
		t.Fatalf("overheads %v/%v exceed the paper's 2%% claim", areaFrac, powerFrac)
	}
	tab := Table4(hwmodel.DefaultConfig())
	if !strings.Contains(tab.String(), "ACE (Total)") {
		t.Fatal("table missing total row")
	}
}

func TestTables5And6(t *testing.T) {
	s5 := Table5(system.NewSpec(torus16, system.ACE)).String()
	if !strings.Contains(s5, "900 GB/s") || !strings.Contains(s5, "16 FSMs") {
		t.Fatalf("table 5 incomplete:\n%s", s5)
	}
	s6 := Table6().String()
	for _, p := range system.Presets() {
		if !strings.Contains(s6, p.String()) {
			t.Fatalf("table 6 missing %s", p)
		}
	}
}
