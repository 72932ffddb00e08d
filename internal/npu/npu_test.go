package npu

import (
	"testing"
	"testing/quick"

	"acesim/internal/des"
	"acesim/internal/stats"
)

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := p
	bad.CommSMs = 100
	if bad.Validate() == nil {
		t.Fatal("CommSMs > SMs accepted")
	}
	bad = p
	bad.CommMemGBps = 1e4
	if bad.Validate() == nil {
		t.Fatal("comm mem > total accepted")
	}
	bad = p
	bad.SMs = 0
	if bad.Validate() == nil {
		t.Fatal("zero SMs accepted")
	}
}

func TestNodeCommMemRateSMCapped(t *testing.T) {
	eng := des.NewEngine()
	p := DefaultParams()
	p.CommMemGBps = 450
	p.CommSMs = 2 // 2 SMs can only stream 160 GB/s
	n, err := NewNode(eng, 0, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.CommMem.Rate(); got != 160 {
		t.Fatalf("SM-capped comm rate = %v, want 160", got)
	}
	// DMA-driven (ACE) endpoints are not SM capped.
	n2, _ := NewNode(eng, 1, p, false)
	if got := n2.CommMem.Rate(); got != 450 {
		t.Fatalf("DMA comm rate = %v, want 450", got)
	}
}

func TestKernelTimeComputeBound(t *testing.T) {
	eng := des.NewEngine()
	p := DefaultParams()
	p.CommSMs = 0
	p.CommMemGBps = 0
	p.LaunchOvh = 0
	c := NewCompute(eng, p)
	// 120e12 MACs at 120 TOPS = 1 s.
	if got := c.KernelTime(Kernel{MACs: 120e12}); got != des.Second {
		t.Fatalf("compute-bound time = %v, want 1s", got)
	}
}

func TestKernelTimeMemoryBound(t *testing.T) {
	eng := des.NewEngine()
	p := DefaultParams()
	p.CommSMs = 0
	p.CommMemGBps = 0
	p.LaunchOvh = 0
	c := NewCompute(eng, p)
	// 900e9 bytes at 900 GB/s = 1 s; tiny MACs.
	if got := c.KernelTime(Kernel{MACs: 1, Bytes: 900e9}); got != des.Second {
		t.Fatalf("memory-bound time = %v, want 1s", got)
	}
}

func TestKernelTimeSMReduction(t *testing.T) {
	eng := des.NewEngine()
	p := DefaultParams()
	p.LaunchOvh = 0
	p.CommMemGBps = 0
	p.CommSMs = 0
	full := NewCompute(eng, p).KernelTime(Kernel{MACs: 1e12})
	p.CommSMs = 40 // half the SMs stolen
	half := NewCompute(eng, p).KernelTime(Kernel{MACs: 1e12})
	if diff := half - 2*full; diff < -1 || diff > 1 { // 1 ps rounding slack
		t.Fatalf("half SMs should double compute-bound time: %v vs %v", full, half)
	}
}

func TestKernelTimeMemReduction(t *testing.T) {
	eng := des.NewEngine()
	p := DefaultParams()
	p.LaunchOvh = 0
	p.CommSMs = 0
	p.CommMemGBps = 450 // half of 900 left for compute
	c := NewCompute(eng, p)
	got := c.KernelTime(Kernel{Bytes: 450e9})
	if got != des.Second {
		t.Fatalf("mem-bound with reduced BW = %v, want 1s", got)
	}
}

func TestKernelLaunchOverhead(t *testing.T) {
	eng := des.NewEngine()
	p := DefaultParams()
	p.CommSMs = 0
	p.CommMemGBps = 0
	c := NewCompute(eng, p)
	if got := c.KernelTime(Kernel{}); got != p.LaunchOvh {
		t.Fatalf("empty kernel = %v, want launch overhead %v", got, p.LaunchOvh)
	}
}

func TestComputeSerializes(t *testing.T) {
	eng := des.NewEngine()
	p := DefaultParams()
	p.LaunchOvh = 0
	p.CommSMs = 0
	p.CommMemGBps = 0
	c := NewCompute(eng, p)
	k := Kernel{MACs: 120e9} // 1 ms each
	var t1, t2 des.Time
	c.Run(k, func() { t1 = eng.Now() })
	c.Run(k, func() { t2 = eng.Now() })
	eng.Run()
	if t1 != des.Millisecond || t2 != 2*des.Millisecond {
		t.Fatalf("kernels did not serialize: %v, %v", t1, t2)
	}
	if c.BusyTime() != 2*des.Millisecond || c.Kernels() != 2 {
		t.Fatalf("busy=%v kernels=%d", c.BusyTime(), c.Kernels())
	}
}

func TestComputeTrace(t *testing.T) {
	eng := des.NewEngine()
	p := DefaultParams()
	p.LaunchOvh = 0
	p.CommSMs = 0
	p.CommMemGBps = 0
	c := NewCompute(eng, p)
	tr := stats.NewTrace(des.Millisecond)
	c.Observe(func(start, end des.Time, _ int64) { tr.AddBusy(start, end) })
	c.Run(Kernel{MACs: 120e9}, nil) // 1 ms
	eng.Run()
	if got := tr.Utilization(0, 1); got != 1.0 {
		t.Fatalf("trace = %v", got)
	}
}

func TestKernelTimeMonotonicInWork(t *testing.T) {
	eng := des.NewEngine()
	c := NewCompute(eng, DefaultParams())
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return c.KernelTime(Kernel{MACs: x * 1e6}) <= c.KernelTime(Kernel{MACs: y * 1e6})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeValidation(t *testing.T) {
	p := DefaultParams()
	p.SMs = -1
	if _, err := NewNode(des.NewEngine(), 0, p, true); err == nil {
		t.Fatal("invalid params accepted")
	}
}
