package exper

import (
	"acesim/internal/collectives"
	"acesim/internal/noc"
	"acesim/internal/report"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// AblationSwitchRow compares ACE against the baseline on a switch-class
// (flat, NVSwitch-like) topology: Table II's point that endpoint offload
// is placement-flexible.
type AblationSwitchRow struct {
	Preset     system.Preset
	DurationUS float64
	EffGBps    float64
}

// AblationSwitch runs a single all-reduce on a flat 8-NPU, 150 GB/s
// switch-class fabric (modeled as a ring over the switch ports, as in the
// Fig 4 platform) under every preset.
func AblationSwitch(payload int64) ([]AblationSwitchRow, *report.Table, error) {
	tab := report.New("Ablation: endpoint offload on a switch-class fabric (8 NPUs, 150 GB/s)",
		"system", "duration us", "eff GB/s per NPU")
	var rows []AblationSwitchRow
	for _, p := range system.Presets() {
		spec := system.NewSpec(noc.Torus3(8, 1, 1), p)
		spec.Intra = noc.LinkClass{GBps: 75, LatCycles: 300, Efficiency: 1, FreqGHz: 1.245}
		res, err := RunCollective(spec, collectives.AllReduce, payload)
		if err != nil {
			return nil, nil, err
		}
		r := AblationSwitchRow{Preset: p, DurationUS: res.Duration.Micros(), EffGBps: res.EffGBpsNode}
		rows = append(rows, r)
		tab.Add(p.String(), r.DurationUS, r.EffGBps)
	}
	return rows, tab, nil
}

// AblationSchedRow compares LIFO vs FIFO collective scheduling (the
// Section V design choice: LIFO prioritizes the first layers' gradients,
// which the next forward pass needs first).
type AblationSchedRow struct {
	Preset    system.Preset
	Policy    string
	ComputeUS float64
	ExposedUS float64
	TotalUS   float64
}

// AblationScheduling trains the given workload under LIFO and FIFO chunk
// scheduling on the ACE and CompOpt systems.
func AblationScheduling(t noc.Topology, model string) ([]AblationSchedRow, *report.Table, error) {
	m, err := workload.ByName(model)
	if err != nil {
		return nil, nil, err
	}
	tab := report.New("Ablation: LIFO vs FIFO collective scheduling ("+m.Name+")",
		"system", "policy", "compute us", "exposed us", "total us")
	var rows []AblationSchedRow
	for _, p := range []system.Preset{system.BaselineCompOpt, system.ACE} {
		for _, fifo := range []bool{false, true} {
			spec := system.NewSpec(t, p)
			spec.Coll.FIFOSched = fifo
			FastGranularity(&spec)
			res, _, err := RunTraining(spec, m, training.DefaultConfig())
			if err != nil {
				return nil, nil, err
			}
			policy := "LIFO"
			if fifo {
				policy = "FIFO"
			}
			r := AblationSchedRow{
				Preset: p, Policy: policy,
				ComputeUS: res.TotalCompute.Micros(),
				ExposedUS: res.ExposedComm.Micros(),
				TotalUS:   res.IterTime.Micros(),
			}
			rows = append(rows, r)
			tab.Add(p.String(), policy, r.ComputeUS, r.ExposedUS, r.TotalUS)
		}
	}
	return rows, tab, nil
}
