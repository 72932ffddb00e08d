package core

import (
	"testing"

	"acesim/internal/des"
	"acesim/internal/npu"
	"acesim/internal/stats"
)

func testNode(t *testing.T, eng *des.Engine, commMem float64, commSMs int, smCapped bool) *npu.Node {
	t.Helper()
	p := npu.DefaultParams()
	p.CommMemGBps = commMem
	p.CommSMs = commSMs
	n, err := npu.NewNode(eng, 0, p, smCapped)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestJoin pins the ACE's two-arm join: fn runs once, after the later
// arm, and the record returns to the engine's free list for reuse.
func TestJoin(t *testing.T) {
	eng := des.NewEngine()
	a, err := NewACE(eng, testNode(t, eng, 128, 4, false), DefaultACEConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var at []des.Time
	a.both(a.alu, a.sramW, 1<<20, des.Call, func() { at = append(at, eng.Now()) })
	eng.Run()
	want := a.alu.FreeAt()
	if w := a.sramW.FreeAt(); w > want {
		want = w
	}
	if len(at) != 1 || at[0] != want {
		t.Fatalf("join fired at %v, want once at %v", at, want)
	}
	if len(a.joins) != 1 || a.joins[0].fn != nil || a.joins[0].arg != nil {
		t.Fatalf("join record not recycled: pool %d", len(a.joins))
	}
	a.both(a.sramW, a.sramR, 1<<20, des.Call, func() { at = append(at, eng.Now()) })
	if len(a.joins) != 0 {
		t.Fatal("pooled join record not reused")
	}
	eng.Run()
	if len(at) != 2 {
		t.Fatalf("second join fired %d times", len(at)-1)
	}
}

func TestPhaseKindString(t *testing.T) {
	for k, want := range map[PhaseKind]string{
		PhaseReduceScatter: "reduce-scatter",
		PhaseAllGather:     "all-gather",
		PhaseAllReduce:     "all-reduce",
		PhaseAllToAll:      "all-to-all",
		PhaseKind(99):      "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestBaselineSendCost(t *testing.T) {
	eng := des.NewEngine()
	node := testNode(t, eng, 100, 80, true) // comm mem 100 GB/s, no SM cap binding
	b := NewBaseline(eng, node, DefaultBaselineConfig())
	c := &Chunk{Bytes: 1e6, Resident: []int64{1e6, 1e6}}
	var done des.Time
	b.Admit(c, des.Call, func() {
		b.SourceSend(c, 0, PhaseReduceScatter, 1e6, des.Call, func() { done = eng.Now() })
	})
	eng.Run()
	// One read at 100 GB/s (10us) then bus at 500 GB/s (2us).
	want := des.ByteDur(1e6, 100) + des.ByteDur(1e6, 500)
	if done != want {
		t.Fatalf("send cost %v, want %v", done, want)
	}
	if node.CommMem.Meter.Total() != 1e6 {
		t.Fatalf("read bytes = %d, want 1e6", node.CommMem.Meter.Total())
	}
}

func TestBaselineRecvReduceCost(t *testing.T) {
	eng := des.NewEngine()
	node := testNode(t, eng, 100, 80, true)
	b := NewBaseline(eng, node, DefaultBaselineConfig())
	c := &Chunk{Bytes: 1e6, Resident: []int64{1e6, 1e6}}
	var reduceDone, copyDone des.Time
	b.SinkRecv(c, 0, PhaseReduceScatter, 1e6, true, des.Call, func() { reduceDone = eng.Now() })
	eng.Run()
	eng2 := des.NewEngine()
	node2 := testNode(t, eng2, 100, 80, true)
	b2 := NewBaseline(eng2, node2, DefaultBaselineConfig())
	b2.SinkRecv(c, 0, PhaseAllGather, 1e6, false, des.Call, func() { copyDone = eng2.Now() })
	eng2.Run()
	// Reduce adds one local-operand read over the plain store.
	if reduceDone-copyDone != des.ByteDur(1e6, 100) {
		t.Fatalf("reduce=%v copy=%v", reduceDone, copyDone)
	}
	// Both write the payload (metered, not charged against the knob).
	if node.WriteMeter.Total() != 1e6 || node2.WriteMeter.Total() != 1e6 {
		t.Fatal("writes not metered")
	}
}

func TestBaselineSMCapThrottles(t *testing.T) {
	eng := des.NewEngine()
	// 450 GB/s allocated but only 2 SMs => 160 GB/s effective.
	node := testNode(t, eng, 450, 2, true)
	if node.CommMem.Rate() != 160 {
		t.Fatalf("rate = %v, want 160", node.CommMem.Rate())
	}
}

func TestBaselineForward(t *testing.T) {
	eng := des.NewEngine()
	node := testNode(t, eng, 128, 2, true)
	b := NewBaseline(eng, node, DefaultBaselineConfig())
	var done des.Time
	b.Forward(1e6, des.Call, func() { done = eng.Now() })
	eng.Run()
	want := des.ByteDur(1e6, 500) + des.ByteDur(1e6, 128) + des.ByteDur(1e6, 500)
	if done != want {
		t.Fatalf("forward = %v, want %v", done, want)
	}
	if node.WriteMeter.Total() != 1e6 {
		t.Fatal("forward write not metered")
	}
}

func TestBaselineWindow(t *testing.T) {
	eng := des.NewEngine()
	node := testNode(t, eng, 450, 6, true)
	b := NewBaseline(eng, node, BaselineConfig{MaxInflightChunks: 2})
	admitted := 0
	mk := func() *Chunk { return &Chunk{Bytes: 100, Resident: []int64{100, 100}} }
	chunks := []*Chunk{mk(), mk(), mk()}
	for _, c := range chunks {
		b.Admit(c, des.Call, func() { admitted++ })
	}
	eng.Run()
	if admitted != 2 {
		t.Fatalf("admitted %d, want 2 (window)", admitted)
	}
	done := false
	b.Drain(chunks[0], des.Call, func() { done = true })
	eng.Run()
	if !done || admitted != 3 {
		t.Fatalf("drain did not open the window: admitted=%d", admitted)
	}
}

func TestACEConfigValidate(t *testing.T) {
	cfg := DefaultACEConfig(4)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.FSMs = 0
	if bad.Validate() == nil {
		t.Fatal("zero FSMs accepted")
	}
	bad = cfg
	bad.Partitions = []int64{1, 2}
	if bad.Validate() == nil {
		t.Fatal("wrong partition count accepted")
	}
}

func TestACERates(t *testing.T) {
	cfg := DefaultACEConfig(4)
	// 4 ALUs x 64 B/cycle x 1.245 GHz = 318.72 GB/s.
	if got := cfg.ALURateGBps(); got < 318 || got > 320 {
		t.Fatalf("ALU rate = %v", got)
	}
	if got := cfg.SRAMPortRateGBps(); got < 318 || got > 320 {
		t.Fatalf("SRAM rate = %v", got)
	}
}

func TestACEPartitionSizing(t *testing.T) {
	cfg := DefaultACEConfig(3)
	if got := cfg.MinPartitionBytes(); got != (4<<20)/4 {
		t.Fatalf("even split min = %d", got)
	}
	cfg.Partitions = []int64{1 << 20, 2 << 20, 512 << 10, 512 << 10}
	if got := cfg.MinPartitionBytes(); got != 512<<10 {
		t.Fatalf("explicit min = %d", got)
	}
}

func newTestACE(t *testing.T, eng *des.Engine, cfg ACEConfig) (*ACE, *npu.Node) {
	t.Helper()
	node := testNode(t, eng, 128, 0, false)
	a, err := NewACE(eng, node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, node
}

func TestACELifecycleMemoryTraffic(t *testing.T) {
	eng := des.NewEngine()
	a, node := newTestACE(t, eng, DefaultACEConfig(2))
	c := &Chunk{Bytes: 64 << 10, Resident: []int64{64 << 10, 16 << 10, 16 << 10}}
	finished := false
	a.Admit(c, des.Call, func() {
		a.SourceSend(c, 0, PhaseReduceScatter, 16<<10, des.Call, func() {
			a.SinkRecv(c, 0, PhaseReduceScatter, 16<<10, true, des.Call, func() {
				a.NextPhase(c, 1, des.Call, func() {
					a.Drain(c, des.Call, func() { finished = true })
				})
			})
		})
	})
	eng.Run()
	if !finished {
		t.Fatal("chunk did not finish")
	}
	// HBM sees exactly one read of the chunk and one write of the result.
	if got := node.CommMem.Meter.Total(); got != 64<<10 {
		t.Fatalf("HBM reads = %d, want one chunk", got)
	}
	if got := node.WriteMeter.Total(); got != 16<<10 {
		t.Fatalf("HBM writes = %d, want the result", got)
	}
	if a.Active() != 0 {
		t.Fatalf("active = %d after drain", a.Active())
	}
	// All partitions and FSMs released.
	for i, g := range a.parts {
		if g.Used() != 0 {
			t.Fatalf("partition %d leaked %d bytes", i, g.Used())
		}
	}
	for i, g := range a.fsms {
		if g.Used() != 0 {
			t.Fatalf("fsm pool %d leaked %d slots", i, g.Used())
		}
	}
}

func TestACEPartitionBackpressure(t *testing.T) {
	eng := des.NewEngine()
	cfg := DefaultACEConfig(1)
	cfg.SRAMBytes = 128 << 10 // two 64 KiB partitions
	a, _ := newTestACE(t, eng, cfg)
	mk := func() *Chunk { return &Chunk{Bytes: 48 << 10, Resident: []int64{48 << 10, 48 << 10}} }
	admitted := 0
	for i := 0; i < 3; i++ {
		a.Admit(mk(), des.Call, func() { admitted++ })
	}
	eng.Run()
	// Partition 0 is 64 KiB: only one 48 KiB chunk fits at a time.
	if admitted != 1 {
		t.Fatalf("admitted = %d, want 1 (SRAM backpressure)", admitted)
	}
}

func TestACEFSMBackpressure(t *testing.T) {
	eng := des.NewEngine()
	cfg := DefaultACEConfig(1)
	cfg.FSMs = 2
	cfg.SRAMBytes = 64 << 20 // space is plentiful; FSMs are the limit
	a, _ := newTestACE(t, eng, cfg)
	admitted := 0
	for i := 0; i < 5; i++ {
		a.Admit(&Chunk{Bytes: 1 << 10, Resident: []int64{1 << 10, 1 << 10}}, des.Call, func() { admitted++ })
	}
	eng.Run()
	if admitted != 2 {
		t.Fatalf("admitted = %d, want 2 (FSM slots)", admitted)
	}
}

func TestACEPipelineProgress(t *testing.T) {
	// Chunks flowing through all phases never deadlock even when
	// partitions are tight.
	eng := des.NewEngine()
	cfg := DefaultACEConfig(4)
	cfg.SRAMBytes = 5 * (16 << 10) // each partition fits exactly one 16 KiB phase
	a, _ := newTestACE(t, eng, cfg)
	const chunks = 8
	finished := 0
	for i := 0; i < chunks; i++ {
		c := &Chunk{Bytes: 16 << 10, Resident: []int64{16 << 10, 4 << 10, 4 << 10, 16 << 10, 16 << 10}}
		a.Admit(c, des.Call, func() {
			a.NextPhase(c, 1, des.Call, func() {
				a.NextPhase(c, 2, des.Call, func() {
					a.NextPhase(c, 3, des.Call, func() {
						a.Drain(c, des.Call, func() { finished++ })
					})
				})
			})
		})
	}
	eng.Run()
	if finished != chunks {
		t.Fatalf("finished %d/%d chunks (pipeline stalled)", finished, chunks)
	}
}

func TestACEBusyTrace(t *testing.T) {
	eng := des.NewEngine()
	a, _ := newTestACE(t, eng, DefaultACEConfig(1))
	tr := stats.NewTrace(des.Microsecond)
	a.Observe(func(start, end des.Time, _ int64) { tr.AddBusy(start, end) })
	c := &Chunk{Bytes: 128 << 10, Resident: []int64{128 << 10, 128 << 10}}
	a.Admit(c, des.Call, func() { a.Drain(c, des.Call, func() {}) })
	eng.Run()
	if tr.Len() == 0 {
		t.Fatal("busy trace recorded nothing")
	}
}

func TestACEClampedPhases(t *testing.T) {
	// A 4-phase plan on a 2-partition engine grows its reservation in
	// the clamped partition instead of double-releasing.
	eng := des.NewEngine()
	cfg := DefaultACEConfig(2)
	a, _ := newTestACE(t, eng, cfg)
	c := &Chunk{Bytes: 8 << 10, Resident: []int64{8 << 10, 2 << 10, 2 << 10, 8 << 10, 8 << 10}}
	done := false
	a.Admit(c, des.Call, func() {
		a.NextPhase(c, 1, des.Call, func() {
			a.NextPhase(c, 2, des.Call, func() {
				a.NextPhase(c, 3, des.Call, func() {
					a.Drain(c, des.Call, func() { done = true })
				})
			})
		})
	})
	eng.Run()
	if !done {
		t.Fatal("clamped chunk did not finish")
	}
	for i, g := range a.parts {
		if g.Used() != 0 {
			t.Fatalf("partition %d leaked %d bytes", i, g.Used())
		}
	}
}

func TestIdealEndpointIsCheap(t *testing.T) {
	eng := des.NewEngine()
	id := NewIdeal(eng, 1.245)
	c := &Chunk{Bytes: 1 << 30, Resident: []int64{1 << 30, 1 << 30}}
	var done des.Time
	id.Admit(c, des.Call, func() {
		id.SourceSend(c, 0, PhaseAllReduce, 1<<30, des.Call, func() {
			id.SinkRecv(c, 0, PhaseAllReduce, 1<<30, true, des.Call, func() {
				id.Drain(c, des.Call, func() { done = eng.Now() })
			})
		})
	})
	eng.Run()
	// Four ops, one cycle each (~803 ps at 1.245 GHz).
	if done > 4*des.Nanosecond {
		t.Fatalf("ideal endpoint too slow: %v", done)
	}
}
