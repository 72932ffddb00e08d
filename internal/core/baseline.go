package core

import (
	"acesim/internal/des"
	"acesim/internal/npu"
	"acesim/internal/resource"
)

// BaselineConfig tunes the software (SM + HBM driven) endpoint.
type BaselineConfig struct {
	// MaxInflightChunks bounds how many chunks the communication kernels
	// pipeline concurrently (the CUDA-stream depth). 0 means 16.
	MaxInflightChunks int
}

// DefaultBaselineConfig returns the default software endpoint tuning.
func DefaultBaselineConfig() BaselineConfig { return BaselineConfig{MaxInflightChunks: 16} }

// Baseline is today's collective stack: sends read gradients from HBM
// through the comm SMs, receives are written to HBM, reductions read the
// local operand again. All reads pass through the node's comm memory
// server, whose rate is min(comm HBM share, commSMs x per-SM streaming);
// all fabric traffic crosses the NPU-AFI bus.
type Baseline struct {
	eng    *des.Engine
	node   *npu.Node
	window *resource.SlotGate
	// runs recycles the staged-transfer records of sends, receives and
	// forwards.
	runs []*stageRun
}

// NewBaseline builds the software endpoint for one node.
func NewBaseline(eng *des.Engine, node *npu.Node, cfg BaselineConfig) *Baseline {
	w := cfg.MaxInflightChunks
	if w <= 0 {
		w = 16
	}
	return &Baseline{
		eng:    eng,
		node:   node,
		window: resource.NewSlotGate("baseline.window", w),
	}
}

// Admit implements Endpoint.
func (b *Baseline) Admit(c *Chunk, fn func(any), arg any) { b.window.AcquireCtx(fn, arg) }

// NextPhase implements Endpoint. Data lives in HBM between phases, so a
// phase transition is free; per-phase costs are paid on sends/receives.
func (b *Baseline) NextPhase(c *Chunk, p int, fn func(any), arg any) { b.eng.AfterCtx(0, fn, arg) }

// SourceSend implements Endpoint: one HBM read plus the bus crossing.
func (b *Baseline) SourceSend(c *Chunk, p int, kind PhaseKind, bytes int64, fn func(any), arg any) {
	b.stages(bytes, -1, fn, arg, b.node.CommMem, b.node.BusTX)
}

// SinkRecv implements Endpoint: the message crosses the bus and is written
// to HBM (write metered); a reduction reads the local operand (one more
// HBM read, which together with the per-send read reproduces the paper's
// 2x RS / 1x AG read accounting).
func (b *Baseline) SinkRecv(c *Chunk, p int, kind PhaseKind, bytes int64, reduce bool, fn func(any), arg any) {
	if reduce {
		b.stages(bytes, 0, fn, arg, b.node.BusRX, b.node.CommMem)
		return
	}
	b.stages(bytes, 0, fn, arg, b.node.BusRX)
}

// Forward implements Endpoint: multi-hop traffic is staged through HBM at
// every intermediate node (the paper's NVLink neighbor-only observation):
// bus in, write, read back, bus out.
func (b *Baseline) Forward(bytes int64, fn func(any), arg any) {
	b.stages(bytes, 0, fn, arg, b.node.BusRX, b.node.CommMem, b.node.BusTX)
}

// stageRun carries one transfer through a sequence of servers, one after
// the other. Records are recycled through the owning Baseline's free
// list, so a send, receive or forward allocates nothing once the pool is
// warm.
type stageRun struct {
	b     *Baseline
	srv   [3]*resource.Server
	n, i  int
	bytes int64
	// write is the stage after whose service the bytes land in HBM (the
	// write is metered then); -1 for none.
	write int
	fn    func(any)
	arg   any
}

// stages requests bytes on each server in turn, metering an HBM write
// after stage write (-1: none), and runs fn(arg) after the last one.
func (b *Baseline) stages(bytes int64, write int, fn func(any), arg any, srv ...*resource.Server) {
	var r *stageRun
	if n := len(b.runs); n > 0 {
		r = b.runs[n-1]
		b.runs = b.runs[:n-1]
	} else {
		r = &stageRun{b: b}
	}
	r.n = copy(r.srv[:], srv)
	r.i, r.bytes, r.write, r.fn, r.arg = 0, bytes, write, fn, arg
	r.srv[0].RequestAfterCtx(bytes, 0, stageDone, r)
}

// stageDone is the static completion callback of one stage.
func stageDone(x any) {
	r := x.(*stageRun)
	if r.i == r.write {
		r.b.node.WriteMeter.Add(r.bytes)
	}
	r.i++
	if r.i < r.n {
		r.srv[r.i].RequestAfterCtx(r.bytes, 0, stageDone, r)
		return
	}
	fn, arg := r.fn, r.arg
	r.fn, r.arg = nil, nil
	r.b.runs = append(r.b.runs, r)
	fn(arg)
}

// Drain implements Endpoint: final results were already written on their
// last receive; only the pipeline slot is released.
func (b *Baseline) Drain(c *Chunk, fn func(any), arg any) {
	b.window.Release()
	b.eng.AfterCtx(0, fn, arg)
}

var _ Endpoint = (*Baseline)(nil)
