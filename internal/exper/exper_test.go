package exper

import (
	"strings"
	"testing"

	"acesim/internal/collectives"
	"acesim/internal/hwmodel"
	"acesim/internal/noc"
	"acesim/internal/system"
	"acesim/internal/workload"
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

func TestFig9bUtilization(t *testing.T) {
	rows, _, err := Fig9b(torus16, []*workload.Model{workload.ResNet50(workload.ResNet50Batch)})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Data-parallel: no forward communication except cross-iteration
	// waits; backprop keeps ACE busy. The paper's 96.4% is a 128-NPU
	// number; at 16 NPUs the collectives drain quickly between layers,
	// so only the ordering and a floor are asserted here (the cmd
	// harness reports the 4x8x4 values).
	if r.BwdUtil < 0.15 {
		t.Fatalf("bwd utilization %.2f too low", r.BwdUtil)
	}
	if r.FwdUtil >= r.BwdUtil {
		t.Fatalf("fwd utilization (%.2f) should be below bwd (%.2f)", r.FwdUtil, r.BwdUtil)
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

func TestAblationSwitch(t *testing.T) {
	rows, _, err := AblationSwitch(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var cmp, ace float64
	for _, r := range rows {
		switch r.Preset {
		case system.BaselineCompOpt:
			cmp = r.DurationUS
		case system.ACE:
			ace = r.DurationUS
		}
	}
	// Endpoint offload works on switch-class fabrics too (Table II).
	if ace > cmp {
		t.Fatalf("ACE (%v us) should not lose to CompOpt (%v us) on a switch", ace, cmp)
	}
}

func TestAblationScheduling(t *testing.T) {
	rows, _, err := AblationScheduling(torus16, "resnet50")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TotalUS <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
}
