package exper

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/npu"
	"acesim/internal/report"
	"acesim/internal/system"
	"acesim/internal/trace"
)

// Fig4Kernel describes one interfering compute kernel of the Section III
// microbenchmark (GEMM NxN or pooled embedding lookup with batch B).
type Fig4Kernel struct {
	Name string
	// MACs and Bytes define the kernel's duration via the roofline model.
	MACs  float64
	Bytes int64
	// MemDemandGBps is the HBM bandwidth the kernel consumes while it
	// runs (contending with communication).
	MemDemandGBps float64
	// SMDemand is the fraction of SMs the kernel occupies.
	SMDemand float64
}

// GEMMKernel builds the paper's "GEMM N" microbenchmark kernel
// (NxN x NxN matrix multiply; N=1000 occupies 44.8 warps/SM, i.e.
// essentially the whole machine).
func GEMMKernel(n int) Fig4Kernel {
	macs := float64(n) * float64(n) * float64(n)
	bytes := int64(3) * int64(n) * int64(n) * 2
	occ := float64(n) / 1000 // calibrated: N=1000 saturates the SMs
	if occ > 1 {
		occ = 1
	}
	return Fig4Kernel{
		Name:          fmt.Sprintf("GEMM %d", n),
		MACs:          macs,
		Bytes:         bytes,
		MemDemandGBps: 100 * occ,
		SMDemand:      occ,
	}
}

// EmbLookupKernel builds the "EmbLookup B" kernel (table 100000x64,
// 28 lookups/sample, batch B; B=10000 uses 429.2 GB/s per the paper).
func EmbLookupKernel(batch int) Fig4Kernel {
	bytes := int64(batch) * 28 * 64 * 4 // FP32 table rows
	return Fig4Kernel{
		Name:          fmt.Sprintf("EmbLookup %d", batch),
		Bytes:         bytes,
		MemDemandGBps: 429.2 * float64(batch) / 10000,
		SMDemand:      0.1,
	}
}

// Fig4Row is one (kernel, all-reduce size) slowdown measurement.
type Fig4Row struct {
	Kernel    string
	ARBytes   int64
	AloneUS   float64
	OverlapUS float64
	Slowdown  float64
}

// fig4Spec builds the Section III measurement platform: 8 NPUs behind an
// NVSwitch-class fabric with 150 GB/s per NPU, modeled as an 8-ring with
// 75 GB/s per direction, running the software (NCCL-like) endpoint.
func fig4Spec() system.Spec {
	spec := system.NewSpec(noc.Torus3(8, 1, 1), system.BaselineCommOpt)
	spec.Intra = noc.LinkClass{GBps: 75, LatCycles: 300, Efficiency: 1, FreqGHz: 1.245}
	spec.NPU.CommMemGBps = 450
	spec.NPU.CommSMs = 6
	return spec
}

// Fig4 reproduces the microbenchmark: the slowdown of an NCCL-style
// all-reduce when overlapped with a compute kernel that contends for SMs
// and HBM bandwidth. The kernel executes twice back-to-back (compute,
// post comm, compute, wait comm); while it runs, the communication stack's
// effective memory bandwidth and SM share are reduced by the kernel's
// demand.
func Fig4(kernels []Fig4Kernel, arSizes []int64) ([]Fig4Row, *report.Table, error) {
	tab := report.New("Fig 4: all-reduce slowdown when overlapped with compute (8 NPUs, 150 GB/s switch)",
		"kernel", "AR MB", "alone us", "overlapped us", "slowdown")
	var rows []Fig4Row
	for _, ar := range arSizes {
		alone, _, err := Fig4MeasureStats(nil, ar)
		if err != nil {
			return nil, nil, err
		}
		for _, k := range kernels {
			k := k
			over, _, err := Fig4MeasureStats(&k, ar)
			if err != nil {
				return nil, nil, err
			}
			r := Fig4Row{
				Kernel: k.Name, ARBytes: ar,
				AloneUS: alone.Micros(), OverlapUS: over.Micros(),
				Slowdown: float64(over) / float64(alone),
			}
			rows = append(rows, r)
			tab.Add(r.Kernel, ar>>20, r.AloneUS, r.OverlapUS, r.Slowdown)
		}
	}
	return rows, tab, nil
}

// Fig4Defaults returns the paper's kernel scales and all-reduce sizes.
func Fig4Defaults() ([]Fig4Kernel, []int64) {
	return []Fig4Kernel{
			GEMMKernel(512), GEMMKernel(1000), GEMMKernel(2000),
			EmbLookupKernel(1000), EmbLookupKernel(10000),
		},
		[]int64{10 << 20, 100 << 20}
}

// Fig4MeasureEngine measures one all-reduce on the Section III
// platform under the given execution engine, optionally overlapped with
// kernel k running twice back-to-back from t=0, and returns the
// completion time plus the executed-event count (shadow events
// included). A contended run (k != nil) rewires comm-memory rates
// before the issue, so the hybrid fast path refuses itself and the run
// is plain DES; the alone run engages the mirror and must land on
// identical picoseconds.
func Fig4MeasureEngine(k *Fig4Kernel, arBytes int64, engine collectives.Engine) (des.Time, uint64, error) {
	return fig4RunEngine(k, arBytes, nil, engine)
}

// Fig4MeasureStats is Fig4MeasureEngine on the full DES engine — the
// single-point form of Fig4, used by the scenario engine's microbench
// units and the bench harness (events/sec accounting).
func Fig4MeasureStats(k *Fig4Kernel, arBytes int64) (des.Time, uint64, error) {
	return fig4RunEngine(k, arBytes, nil, collectives.EngineDES)
}

// Fig4MeasureTrace is Fig4MeasureStats with the run's spans collected
// into tr (nil behaves exactly like Fig4MeasureStats). The
// microbenchmark's kernel is modeled as a contention window (a rate
// change), not simulated on the compute stream, so the traced run
// reports one synthetic compute interval per node over the kernel
// window — the overlap accounting then sees the same compute occupancy
// the rate model charges for.
func Fig4MeasureTrace(k *Fig4Kernel, arBytes int64, tr *trace.Tracer) (des.Time, uint64, error) {
	return fig4RunEngine(k, arBytes, tr, collectives.EngineDES)
}

// fig4RunEngine runs one measurement behind the Fig4Measure* forms.
func fig4RunEngine(k *Fig4Kernel, arBytes int64, tr *trace.Tracer, engine collectives.Engine) (des.Time, uint64, error) {
	spec := fig4Spec()
	spec.Tracer = tr
	spec.Engine = engine
	s, err := system.Build(spec)
	if err != nil {
		return 0, 0, err
	}
	if k != nil {
		// Compute the kernel's duration on the compute partition, then
		// model contention: while the kernels run, the comm stack's
		// memory rate drops by the kernel's demand and its SM share.
		kt := s.Computes[0].KernelTime(npu.Kernel{MACs: k.MACs, Bytes: k.Bytes})
		window := 2 * kt
		full := s.Nodes[0].CommMem.Rate()
		smLeft := 1 - k.SMDemand
		contended := spec.NPU.CommMemGBps - k.MemDemandGBps
		if smCap := float64(spec.NPU.CommSMs) * spec.NPU.PerSMGBps * smLeft; smCap < contended {
			contended = smCap
		}
		if contended < 16 {
			contended = 16
		}
		for _, n := range s.Nodes {
			n.CommMem.SetRate(contended)
		}
		nodes := s.Nodes
		s.Eng.At(window, func() {
			for _, n := range nodes {
				n.CommMem.SetRate(full)
			}
		})
		for _, c := range s.Computes {
			c.Occupy(k.Name, 0, window, k.Bytes)
		}
	}
	plan := collectives.RingAllReduce(8, noc.DimLocal)
	done := 0
	colls := make([]*collectives.Collective, s.RT.Nodes())
	for i := range colls {
		colls[i] = s.RT.Issue(noc.NodeID(i), collectives.Spec{
			Kind: collectives.AllReduce, Bytes: arBytes, Plan: plan, Name: "ar",
		}, func() { done++ })
	}
	s.Eng.Run()
	s.FoldHybrid()
	if done != s.RT.Nodes() {
		return 0, 0, fmt.Errorf("fig4: all-reduce incomplete")
	}
	var last des.Time
	for i, coll := range colls {
		if t := coll.CompleteAt(noc.NodeID(i)); t > last {
			last = t
		}
	}
	return last, s.Eng.Steps() + s.RT.HybridStats().ShadowSteps, nil
}
