package exper

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/report"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// Fig5Point is one point of the memory-bandwidth sensitivity sweep.
type Fig5Point struct {
	Nodes     int
	CommGBps  float64
	Baseline  float64 // effective network GB/s per NPU
	ACE       float64
	IdealGBps float64
}

// Fig5 reproduces Fig 5: effective network bandwidth of a single 64 MB
// all-reduce as the memory bandwidth available to communication varies,
// for the baseline (all 80 SMs available to comm, per the figure caption)
// and ACE, against the ideal endpoint.
func Fig5(toruses []noc.Topology, memBWs []float64, payload int64) ([]Fig5Point, *report.Table, error) {
	tab := report.New("Fig 5: network BW utilization vs comm memory BW (single 64MB all-reduce)",
		"NPUs", "commGB/s", "Baseline GB/s", "ACE GB/s", "Ideal GB/s")
	var pts []Fig5Point
	for _, t := range toruses {
		ideal, err := RunCollective(system.NewSpec(t, system.Ideal), collectives.AllReduce, payload)
		if err != nil {
			return nil, nil, err
		}
		for _, bw := range memBWs {
			bspec := system.NewSpec(t, system.BaselineCommOpt)
			bspec.NPU.CommMemGBps = bw
			bspec.NPU.CommSMs = bspec.NPU.SMs // Fig 5: all SMs available to comm
			bres, err := RunCollective(bspec, collectives.AllReduce, payload)
			if err != nil {
				return nil, nil, err
			}
			aspec := system.NewSpec(t, system.ACE)
			aspec.NPU.CommMemGBps = bw
			ares, err := RunCollective(aspec, collectives.AllReduce, payload)
			if err != nil {
				return nil, nil, err
			}
			p := Fig5Point{
				Nodes: t.N(), CommGBps: bw,
				Baseline: bres.EffGBpsNode, ACE: ares.EffGBpsNode,
				IdealGBps: ideal.EffGBpsNode,
			}
			pts = append(pts, p)
			tab.Add(p.Nodes, p.CommGBps, p.Baseline, p.ACE, p.IdealGBps)
		}
	}
	return pts, tab, nil
}

// Fig5Defaults returns the paper-like sweep inputs.
func Fig5Defaults() ([]noc.Topology, []float64, int64) {
	return []noc.Topology{noc.Torus3(4, 2, 2), noc.Torus3(4, 4, 4)},
		[]float64{32, 64, 96, 128, 192, 256, 350, 450, 600, 750, 900},
		64 << 20
}

// Fig6Point is one point of the SM-count sensitivity sweep.
type Fig6Point struct {
	Nodes    int
	SMs      int
	BWperNPU float64
}

// Fig6 reproduces Fig 6: baseline network bandwidth as the number of SMs
// available for communication varies (all memory bandwidth available; the
// paper's takeaway is that 6 SMs suffice to drive the fabric, in line
// with NCCL/oneCCL core usage).
func Fig6(toruses []noc.Topology, sms []int, payload int64) ([]Fig6Point, *report.Table, error) {
	tab := report.New("Fig 6: baseline network BW vs SMs for communication (single 64MB all-reduce)",
		"NPUs", "SMs", "GB/s per NPU")
	var pts []Fig6Point
	for _, t := range toruses {
		for _, n := range sms {
			spec := system.NewSpec(t, system.BaselineCommOpt)
			spec.NPU.CommMemGBps = spec.NPU.MemGBps // all memory BW available
			spec.NPU.CommSMs = n
			res, err := RunCollective(spec, collectives.AllReduce, payload)
			if err != nil {
				return nil, nil, err
			}
			p := Fig6Point{Nodes: t.N(), SMs: n, BWperNPU: res.EffGBpsNode}
			pts = append(pts, p)
			tab.Add(p.Nodes, p.SMs, p.BWperNPU)
		}
	}
	return pts, tab, nil
}

// Fig6Defaults returns the paper's x-axis (SM counts).
func Fig6Defaults() ([]noc.Topology, []int, int64) {
	return []noc.Topology{noc.Torus3(4, 2, 2), noc.Torus3(4, 4, 4)},
		[]int{1, 2, 3, 4, 5, 6, 8, 16, 64},
		64 << 20
}

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

// Fig11Row is one (size, workload, system) training measurement.
type Fig11Row struct {
	TrainResult
	PctOfIdeal float64
}

// Fig11 reproduces the scalability study: total compute and exposed
// communication for every workload on every system size under all five
// Table VI configurations, plus ACE's speedup over each baseline (Fig 11b).
func Fig11(sizes []noc.Topology, models []*workload.Model) ([]Fig11Row, *report.Table, *report.Table, error) {
	tabA := report.New("Fig 11a: total compute vs exposed communication (2 iterations)",
		"NPUs", "workload", "system", "compute us", "exposed us", "total us", "% of ideal")
	tabB := report.New("Fig 11b: ACE speedup over baselines",
		"NPUs", "workload", "vs NoOverlap", "vs CommOpt", "vs CompOpt", "best baseline")
	var rows []Fig11Row
	for _, t := range sizes {
		for _, m := range models {
			byPreset := map[system.Preset]training.Result{}
			for _, p := range system.Presets() {
				spec := system.NewSpec(t, p)
				FastGranularity(&spec)
				res, _, err := RunTraining(spec, m, training.DefaultConfig())
				if err != nil {
					return nil, nil, nil, fmt.Errorf("fig11 %s %s %s: %w", t, m.Name, p, err)
				}
				byPreset[p] = res.Result
			}
			ideal := byPreset[system.Ideal].IterTime.Seconds()
			for _, p := range system.Presets() {
				r := byPreset[p]
				row := Fig11Row{
					TrainResult: TrainResult{Preset: p, Topo: t, Workload: m.Name, Result: r},
					PctOfIdeal:  100 * ideal / r.IterTime.Seconds(),
				}
				rows = append(rows, row)
				tabA.Add(t.N(), m.Name, p.String(),
					r.TotalCompute.Micros(), r.ExposedComm.Micros(), r.IterTime.Micros(),
					row.PctOfIdeal)
			}
			ace := byPreset[system.ACE].IterTime.Seconds()
			no := byPreset[system.BaselineNoOverlap].IterTime.Seconds() / ace
			cm := byPreset[system.BaselineCommOpt].IterTime.Seconds() / ace
			cp := byPreset[system.BaselineCompOpt].IterTime.Seconds() / ace
			best := min(no, min(cm, cp))
			tabB.Add(t.N(), m.Name, no, cm, cp, best)
		}
	}
	return rows, tabA, tabB, nil
}

// Fig12Row is one configuration of the DLRM optimization experiment.
type Fig12Row struct {
	Preset    system.Preset
	Optimized bool
	ComputeUS float64
	ExposedUS float64
	TotalUS   float64
}

// Fig12 reproduces the DLRM training-loop optimization: default vs
// optimized (embedding lookup/update overlapped on a spare 80 GB/s
// allocation) for BaselineCompOpt and ACE.
func Fig12(t noc.Topology) ([]Fig12Row, *report.Table, error) {
	tab := report.New("Fig 12: DLRM optimized training loop (2 iterations)",
		"system", "loop", "compute us", "exposed us", "total us", "speedup")
	m := workload.DLRM(workload.DLRMBatch)
	var rows []Fig12Row
	for _, p := range []system.Preset{system.BaselineCompOpt, system.ACE} {
		var base float64
		for _, opt := range []bool{false, true} {
			spec := system.NewSpec(t, p)
			FastGranularity(&spec)
			tc := training.DefaultConfig()
			tc.DLRMOptimized = opt
			res, _, err := RunTraining(spec, m, tc)
			if err != nil {
				return nil, nil, err
			}
			row := Fig12Row{
				Preset: p, Optimized: opt,
				ComputeUS: res.TotalCompute.Micros(),
				ExposedUS: res.ExposedComm.Micros(),
				TotalUS:   res.IterTime.Micros(),
			}
			rows = append(rows, row)
			loop := "Default"
			speedup := 1.0
			if opt {
				loop = "Optimized"
				speedup = base / row.TotalUS
			} else {
				base = row.TotalUS
			}
			tab.Add(p.String(), loop, row.ComputeUS, row.ExposedUS, row.TotalUS, speedup)
		}
	}
	return rows, tab, nil
}
