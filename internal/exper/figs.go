package exper

import (
	"fmt"

	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/report"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// Fig9aPoint is one ACE design point.
type Fig9aPoint struct {
	SRAMBytes int64
	FSMs      int
	// Perf is performance (1/iteration time) averaged over workloads,
	// normalized to the chosen design point (4 MB, 16 FSMs).
	Perf float64
}

// Fig9a reproduces the ACE design-space exploration: mean training
// performance across the given workloads as SRAM size and FSM count vary,
// normalized to the 4 MB / 16 FSM design point.
func Fig9a(t noc.Topology, models []*workload.Model, srams []int64, fsms []int) ([]Fig9aPoint, *report.Table, error) {
	iterTime := func(sram int64, fsm int) (float64, error) {
		var sum float64
		for _, m := range models {
			spec := system.NewSpec(t, system.ACE)
			spec.ACE.SRAMBytes = sram
			spec.ACE.FSMs = fsm
			FastGranularity(&spec)
			res, _, err := RunTraining(spec, m, training.DefaultConfig())
			if err != nil {
				return 0, fmt.Errorf("fig9a %s sram=%d fsm=%d: %w", m.Name, sram, fsm, err)
			}
			sum += res.IterTime.Seconds()
		}
		return sum, nil
	}
	ref, err := iterTime(4<<20, 16)
	if err != nil {
		return nil, nil, err
	}
	tab := report.New("Fig 9a: ACE performance vs SRAM size and FSM count (normalized to 4MB/16FSM)",
		"SRAM", "FSMs", "normalized perf")
	var pts []Fig9aPoint
	for _, sram := range srams {
		for _, fsm := range fsms {
			tt, err := iterTime(sram, fsm)
			if err != nil {
				return nil, nil, err
			}
			p := Fig9aPoint{SRAMBytes: sram, FSMs: fsm, Perf: ref / tt}
			pts = append(pts, p)
			tab.Add(fmt.Sprintf("%dMB", sram>>20), fsm, p.Perf)
		}
	}
	return pts, tab, nil
}

// Fig9aDefaults returns the paper's sweep axes.
func Fig9aDefaults() ([]int64, []int) {
	return []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20}, []int{4, 8, 16, 20}
}

// Fig9bRow is the ACE utilization of one workload.
type Fig9bRow struct {
	Workload string
	FwdUtil  float64
	BwdUtil  float64
}

// Fig9b reproduces the ACE utilization split: the fraction of forward and
// backward pass time during which the engine has at least one chunk
// assigned (averaged over both iterations, node 0).
func Fig9b(t noc.Topology, models []*workload.Model) ([]Fig9bRow, *report.Table, error) {
	tab := report.New("Fig 9b: ACE utilization (fraction of pass with >=1 chunk assigned)",
		"workload", "fwd", "bwd")
	var rows []Fig9bRow
	for _, m := range models {
		spec := system.NewSpec(t, system.ACE)
		spec.TraceBucket = des.Microsecond
		FastGranularity(&spec)
		res, s, err := RunTraining(spec, m, training.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		s.ACEs[0].FlushBusy()
		util := func(ws []training.Window) float64 {
			var busy, total float64
			for _, w := range ws {
				from := int(w.Start / spec.TraceBucket)
				to := int(w.End/spec.TraceBucket) + 1
				busy += s.ACEUtil[0].Mean(from, to, 1) * float64(to-from)
				total += float64(to - from)
			}
			if total == 0 {
				return 0
			}
			return busy / total
		}
		r := Fig9bRow{Workload: m.Name, FwdUtil: util(res.FwdWindows), BwdUtil: util(res.BwdWindows)}
		rows = append(rows, r)
		tab.Add(r.Workload, r.FwdUtil, r.BwdUtil)
	}
	return rows, tab, nil
}

// Fig10Row summarizes one utilization timeline.
type Fig10Row struct {
	Workload    string
	Preset      system.Preset
	IterUS      float64
	ComputeUS   float64
	ExposedUS   float64
	MeanNetUtil float64 // fraction of links busy, averaged over the run
	MeanCmpUtil float64
}

// Fig10Trace carries the raw per-microsecond utilization series for CSV
// output (the paper's timeline plots).
type Fig10Trace struct {
	Row     Fig10Row
	NetUtil []float64
	CmpUtil []float64
}

// Fig10 reproduces the compute/communication overlap timelines: per-bucket
// network-link and compute utilization for two training iterations of each
// workload under each system with overlap.
func Fig10(t noc.Topology, models []*workload.Model, presets []system.Preset) ([]Fig10Trace, *report.Table, error) {
	tab := report.New("Fig 10: compute-communication overlap (2 iterations)",
		"workload", "system", "iter us", "compute us", "exposed us", "net util", "cmp util")
	var traces []Fig10Trace
	for _, m := range models {
		for _, p := range presets {
			spec := system.NewSpec(t, p)
			spec.TraceBucket = des.Microsecond
			FastGranularity(&spec)
			res, s, err := RunTraining(spec, m, training.DefaultConfig())
			if err != nil {
				return nil, nil, err
			}
			buckets := int(res.IterTime/spec.TraceBucket) + 1
			tr := Fig10Trace{Row: Fig10Row{
				Workload:  m.Name,
				Preset:    p,
				IterUS:    res.IterTime.Micros(),
				ComputeUS: res.TotalCompute.Micros(),
				ExposedUS: res.ExposedComm.Micros(),
			}}
			links := float64(s.Net.NumLinks())
			for b := 0; b < buckets; b++ {
				tr.NetUtil = append(tr.NetUtil, s.LinkUtil.Utilization(b, links))
				tr.CmpUtil = append(tr.CmpUtil, s.ComputeUtil[0].Utilization(b, 1))
			}
			tr.Row.MeanNetUtil = mean(tr.NetUtil)
			tr.Row.MeanCmpUtil = mean(tr.CmpUtil)
			traces = append(traces, tr)
			tab.Add(m.Name, p.String(), tr.Row.IterUS, tr.Row.ComputeUS, tr.Row.ExposedUS,
				tr.Row.MeanNetUtil, tr.Row.MeanCmpUtil)
		}
	}
	return traces, tab, nil
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
