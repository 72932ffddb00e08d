package exper

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/npu"
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

// Fig4MeasureStats measures one all-reduce on the Section III platform
// on the full DES engine, optionally overlapped with kernel k running
// twice back-to-back from t=0, and returns the completion time plus the
// executed-event count — the single-point form of the paper's Fig 4,
// used by the scenario engine's microbench units and the bench harness
// (events/sec accounting).
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

// fig4RunEngine runs one measurement behind the Fig4Measure* forms under
// the given execution engine (shadow events included in the count). A
// contended run (k != nil) rewires comm-memory rates before the issue,
// so the hybrid fast path refuses itself and the run is plain DES; the
// alone run engages the mirror and must land on identical picoseconds.
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
