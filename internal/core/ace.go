package core

import (
	"fmt"

	"acesim/internal/des"
	"acesim/internal/npu"
	"acesim/internal/resource"
)

// ACEConfig describes one Accelerator Collectives Engine (Section IV-I
// defaults: 4 MB SRAM, 16 FSMs, 4 ALUs of 16xFP32 / 32xFP16 each, 64 B
// buses, 1.245 GHz).
type ACEConfig struct {
	SRAMBytes        int64   // total scratchpad capacity (4 MiB)
	FSMs             int     // programmable state machines (16)
	ALUs             int     // vector ALUs (4)
	ALUBytesPerCycle int     // per-ALU width in bytes/cycle (64)
	SRAMBanks        int     // independent SRAM banks (4)
	BusWidthBytes    int     // SRAM<->unit bus width (64)
	FreqGHz          float64 // engine clock (1.245)
	// Phases is the number of algorithm phases the SRAM is partitioned
	// for; the SRAM holds Phases+1 partitions (the last is the terminal
	// partition, Section IV-E).
	Phases int
	// Partitions optionally gives explicit per-partition byte sizes
	// (len Phases+1). When nil the SRAM is split evenly.
	Partitions []int64
}

// DefaultACEConfig returns the paper's chosen design point for a plan with
// the given number of phases.
func DefaultACEConfig(phases int) ACEConfig {
	return ACEConfig{
		SRAMBytes:        4 << 20,
		FSMs:             16,
		ALUs:             4,
		ALUBytesPerCycle: 64,
		SRAMBanks:        4,
		BusWidthBytes:    64,
		FreqGHz:          1.245,
		Phases:           phases,
	}
}

// Validate reports configuration errors.
func (c ACEConfig) Validate() error {
	if c.SRAMBytes <= 0 || c.FSMs <= 0 || c.ALUs <= 0 || c.Phases <= 0 {
		return fmt.Errorf("core: non-positive ACE parameters: %+v", c)
	}
	if c.Partitions != nil && len(c.Partitions) != c.Phases+1 {
		return fmt.Errorf("core: ACE wants %d partitions, got %d", c.Phases+1, len(c.Partitions))
	}
	return nil
}

// ALURateGBps returns the aggregate reduction throughput.
func (c ACEConfig) ALURateGBps() float64 {
	return float64(c.ALUs*c.ALUBytesPerCycle) * c.FreqGHz
}

// SRAMPortRateGBps returns the per-port (read or write) SRAM throughput.
func (c ACEConfig) SRAMPortRateGBps() float64 {
	return float64(c.SRAMBanks*c.BusWidthBytes) * c.FreqGHz
}

// partitionSizes resolves the per-partition byte sizes.
func (c ACEConfig) partitionSizes() []int64 {
	if c.Partitions != nil {
		return c.Partitions
	}
	n := c.Phases + 1
	sizes := make([]int64, n)
	each := c.SRAMBytes / int64(n)
	for i := range sizes {
		sizes[i] = each
	}
	return sizes
}

// MinPartitionBytes returns the smallest partition; chunks larger than
// this would serialize phase traversal, so the runtime sizes chunks
// against it.
func (c ACEConfig) MinPartitionBytes() int64 {
	m := int64(1) << 62
	for _, s := range c.partitionSizes() {
		if s < m {
			m = s
		}
	}
	return m
}

// aceChunkState is ACE-private per-chunk bookkeeping. It is the context
// argument of the static admission, phase-change and drain callbacks
// (aceOnFSM and the rest), so moving a chunk through the engine
// allocates nothing per phase.
type aceChunkState struct {
	a     *ACE
	c     *Chunk
	phase int   // current partition index the chunk occupies
	held  int64 // bytes reserved in that partition
	// p and pi are the phase and partition a pending Admit or NextPhase
	// moves to; fn(arg) is the caller's continuation of the pending step.
	p, pi int
	fn    func(any)
	arg   any
}

// ACE is the Accelerator Collectives Engine endpoint. Chunks enter through
// a TX DMA (one HBM read), live in per-phase SRAM partitions managed by
// FSMs, are reduced by the engine's own ALUs, and leave through an RX DMA
// (one HBM write). SMs are never used; HBM sees exactly 2 x chunk bytes.
type ACE struct {
	eng  *des.Engine
	node *npu.Node
	cfg  ACEConfig

	parts []*resource.ByteGate // Phases+1 partitions
	fsms  []*resource.SlotGate // Phases FSM pools
	alu   *resource.Server
	sramR *resource.Server
	sramW *resource.Server

	active int
	start  des.Time
	// joins recycles the two-arm join records of SinkRecv and Forward.
	joins []*join2
	// Observers see every interval with >= 1 chunk assigned (Fig 9b
	// occupancy; bytes 0). The internal servers (Servers) carry their
	// own observer lists.
	resource.Observers
}

// NewACE builds the engine for one node. The node's CommMem server is the
// DMA allocation (128 GB/s in the paper) and must not be SM-capped.
func NewACE(eng *des.Engine, node *npu.Node, cfg ACEConfig) (*ACE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &ACE{
		eng:   eng,
		node:  node,
		cfg:   cfg,
		alu:   resource.NewServer(eng, "ace.alu", cfg.ALURateGBps()),
		sramR: resource.NewServer(eng, "ace.sram.rd", cfg.SRAMPortRateGBps()),
		sramW: resource.NewServer(eng, "ace.sram.wr", cfg.SRAMPortRateGBps()),
	}
	for i, sz := range cfg.partitionSizes() {
		a.parts = append(a.parts, resource.NewByteGate(fmt.Sprintf("ace.part%d", i), sz))
	}
	perPhase := cfg.FSMs / cfg.Phases
	if perPhase < 1 {
		perPhase = 1
	}
	for p := 0; p < cfg.Phases; p++ {
		a.fsms = append(a.fsms, resource.NewSlotGate(fmt.Sprintf("ace.fsm%d", p), perPhase))
	}
	return a, nil
}

// Config returns the engine configuration.
func (a *ACE) Config() ACEConfig { return a.cfg }

// Active returns the number of chunks currently assigned.
func (a *ACE) Active() int { return a.active }

func (a *ACE) st(c *Chunk) *aceChunkState {
	if c.state == nil {
		c.state = &aceChunkState{a: a, c: c}
	}
	return c.state.(*aceChunkState)
}

func (a *ACE) markActive(d int) {
	if a.active == 0 && d > 0 {
		a.start = a.eng.Now()
	}
	a.active += d
	if a.active == 0 && d < 0 {
		a.Report(a.start, a.eng.Now(), 0)
	}
}

// phaseIndex clamps a chunk phase to the engine's partition range so
// single-phase collectives (all-to-all) share partition 0.
func (a *ACE) phaseIndex(p int) int {
	if p >= a.cfg.Phases {
		p = a.cfg.Phases - 1
	}
	return p
}

// Admit implements Endpoint: FSM slot, phase-0 partition space, TX DMA
// (HBM read -> NPU-AFI bus -> SRAM write).
func (a *ACE) Admit(c *Chunk, fn func(any), arg any) {
	st := a.st(c)
	st.p, st.pi, st.fn, st.arg = 0, 0, fn, arg
	a.fsms[0].AcquireCtx(aceOnFSM, st)
}

// NextPhase implements Endpoint: acquire the next phase's FSM and
// partition, then release the previous ones and pay the internal SRAM
// move. Forward progress is guaranteed because the terminal partition
// drains unconditionally.
func (a *ACE) NextPhase(c *Chunk, p int, fn func(any), arg any) {
	pi := a.phaseIndex(p)
	st := a.st(c)
	prev := st.phase
	st.p, st.pi, st.fn, st.arg = p, pi, fn, arg
	if pi == prev {
		// Clamped plan: the chunk stays in this partition; grow the
		// reservation if the new phase is larger (all-gather).
		if grow := c.Resident[p] - st.held; grow > 0 {
			a.parts[pi].AcquireCtx(grow, aceOnPart, st)
			return
		}
		a.eng.AfterCtx(0, fn, arg)
		return
	}
	// Release the previous phase's FSM context and partition reservation
	// before queueing for the next phase's. Never holding one phase's
	// resources while waiting for another's keeps the inter-phase
	// resource graph cycle-free (no hold-and-wait, so pipelined chunks
	// cannot deadlock across nodes), at the cost of transiently
	// under-counting SRAM residency during the hand-off.
	a.fsms[prev].Release()
	a.parts[prev].Release(st.held)
	st.held = 0
	a.fsms[pi].AcquireCtx(aceOnFSM, st)
}

// aceOnFSM queues the chunk for the pending phase's partition space.
func aceOnFSM(x any) {
	st := x.(*aceChunkState)
	st.a.parts[st.pi].AcquireCtx(st.c.Resident[st.p], aceOnPart, st)
}

// aceOnPart moves the chunk into the pending phase's partition.
func aceOnPart(x any) {
	st := x.(*aceChunkState)
	a, c := st.a, st.c
	st.phase, st.held = st.pi, c.Resident[st.p]
	if st.p == 0 {
		// Admission. The DMA's SRAM writes land through the banked
		// crossbar (Table IV's switch & interconnect) and do not contend
		// with the collective ports; HBM and the bus serialize it.
		a.markActive(+1)
		a.node.CommMem.RequestAfterCtx(c.Bytes, 0, aceOnDMA, st)
		return
	}
	// Phase hand-off is an FSM pointer update, not a copy (Section IV-F:
	// the chunk context moves between FSM queues); no SRAM port time is
	// charged.
	a.eng.AfterCtx(0, st.fn, st.arg)
}

// aceOnDMA moves the admitted chunk's TX DMA across the bus.
func aceOnDMA(x any) {
	st := x.(*aceChunkState)
	st.a.node.BusTX.RequestAfterCtx(st.c.Bytes, 0, st.fn, st.arg)
}

// SourceSend implements Endpoint: outgoing messages stream from SRAM
// straight into the AFI port buffers — no HBM, no bus, no SMs.
func (a *ACE) SourceSend(c *Chunk, p int, kind PhaseKind, bytes int64, fn func(any), arg any) {
	a.sramR.RequestAfterCtx(bytes, 0, fn, arg)
}

// SinkRecv implements Endpoint: received messages are written into the
// chunk's partition; reductions additionally stream through the ALUs.
func (a *ACE) SinkRecv(c *Chunk, p int, kind PhaseKind, bytes int64, reduce bool, fn func(any), arg any) {
	if reduce {
		a.both(a.alu, a.sramW, bytes, fn, arg)
		return
	}
	a.sramW.RequestAfterCtx(bytes, 0, fn, arg)
}

// Forward implements Endpoint: relayed traffic is absorbed and re-emitted
// by the SRAM without touching HBM (Section V, "its SRAM absorbs packets
// and forwards the ones that have different destinations").
func (a *ACE) Forward(bytes int64, fn func(any), arg any) {
	a.both(a.sramW, a.sramR, bytes, fn, arg)
}

// join2 runs fn(arg) once both arms of a two-server request have completed.
// Records are recycled through the owning ACE's free list, so a reduce
// or forward allocates nothing once the pool is warm.
type join2 struct {
	a    *ACE
	left int
	fn   func(any)
	arg  any
}

// joinArm is the static completion callback of one join2 arm.
func joinArm(x any) {
	j := x.(*join2)
	j.left--
	if j.left > 0 {
		return
	}
	fn, arg := j.fn, j.arg
	j.fn, j.arg = nil, nil
	j.a.joins = append(j.a.joins, j)
	fn(arg)
}

// both requests bytes on x, then on y, and runs fn(arg) when both are
// served.
func (a *ACE) both(x, y *resource.Server, bytes int64, fn func(any), arg any) {
	var j *join2
	if n := len(a.joins); n > 0 {
		j = a.joins[n-1]
		a.joins = a.joins[:n-1]
	} else {
		j = &join2{a: a}
	}
	j.left, j.fn, j.arg = 2, fn, arg
	x.RequestAfterCtx(bytes, 0, joinArm, j)
	y.RequestAfterCtx(bytes, 0, joinArm, j)
}

// Drain implements Endpoint: results move into the terminal partition,
// the phase resources are released, and the RX DMA writes back to HBM.
func (a *ACE) Drain(c *Chunk, fn func(any), arg any) {
	st := a.st(c)
	st.fn, st.arg = fn, arg
	a.parts[a.cfg.Phases].AcquireCtx(c.Resident[len(c.Resident)-1], aceOnDrainPart, st)
}

// aceOnDrainPart releases the chunk's phase resources once the terminal
// partition holds its results, and starts the RX DMA.
func aceOnDrainPart(x any) {
	st := x.(*aceChunkState)
	a := st.a
	a.fsms[st.phase].Release()
	a.parts[st.phase].Release(st.held)
	// As with the TX DMA, the RX DMA's SRAM reads go through the banked
	// crossbar; the bus serializes the transfer.
	a.node.BusRX.RequestAfterCtx(st.c.Resident[len(st.c.Resident)-1], 0, aceOnDrainBus, st)
}

// aceOnDrainBus completes the drain once the RX DMA has crossed the bus.
func aceOnDrainBus(x any) {
	st := x.(*aceChunkState)
	a := st.a
	out := st.c.Resident[len(st.c.Resident)-1]
	a.node.WriteMeter.Add(out)
	a.parts[a.cfg.Phases].Release(out)
	a.markActive(-1)
	st.fn(st.arg)
}

var _ Endpoint = (*ACE)(nil)

// FlushBusy reports the currently open occupancy interval (if any) up
// to the present, so observers are complete when Fig 9b reads
// utilization at the end of a run.
func (a *ACE) FlushBusy() {
	if a.active > 0 {
		now := a.eng.Now()
		a.Report(a.start, now, 0)
		a.start = now
	}
}

// Servers returns the engine's internal rate servers: the ALU and the
// SRAM read and write ports, in that fixed order.
func (a *ACE) Servers() [3]*resource.Server {
	return [3]*resource.Server{a.alu, a.sramR, a.sramW}
}

// EngineBusy returns the summed lifetime busy time of the ACE's
// internal servers (ALU + both SRAM ports) — the integer the energy
// model multiplies by the per-server busy draw.
func (a *ACE) EngineBusy() des.Time {
	return a.alu.BusyTime() + a.sramR.BusyTime() + a.sramW.BusyTime()
}
