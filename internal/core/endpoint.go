// Package core implements the paper's contribution: endpoint models for
// collective communication at the NPU.
//
// Three endpoints are provided (Table VI of the paper):
//
//   - Baseline: today's systems. Collective kernels run on NPU SMs and
//     stream gradients through HBM. Every send costs a memory read, every
//     reduce-on-receive costs another read (together this reproduces the
//     paper's 1.5-reads-per-byte-sent average for ring all-reduce, and the
//     2x/1x split between the reduce-scatter and all-gather phases of
//     Section VI-A). Multi-hop all-to-all traffic is staged through memory
//     at every intermediate endpoint.
//
//   - ACE: the Accelerator Collectives Engine. Chunks are DMA'd once from
//     HBM into an on-engine SRAM that is partitioned per algorithm phase,
//     processed by programmable FSMs (bounded concurrency per phase) and
//     ALUs (4 x 64 B/cycle), and DMA'd back once at the end. The NPU's SMs
//     and HBM are untouched between the two DMAs, and forwarded traffic is
//     absorbed by the SRAM.
//
//   - Ideal: the paper's upper bound; every endpoint action costs one
//     cycle.
//
// An endpoint never initiates anything: the collectives runtime drives it
// through the Endpoint interface and pays the endpoint's costs before
// touching the network.
package core

import (
	"acesim/internal/des"
)

// PhaseKind describes what a collective phase does with the data.
type PhaseKind uint8

// Phase kinds.
const (
	PhaseReduceScatter PhaseKind = iota
	PhaseAllGather
	PhaseAllReduce // ring RS immediately followed by ring AG
	PhaseAllToAll
)

// String names the phase kind.
func (k PhaseKind) String() string {
	switch k {
	case PhaseReduceScatter:
		return "reduce-scatter"
	case PhaseAllGather:
		return "all-gather"
	case PhaseAllReduce:
		return "all-reduce"
	case PhaseAllToAll:
		return "all-to-all"
	}
	return "unknown"
}

// Chunk is the unit of endpoint admission: one pipelined slice of a
// collective payload, as seen by one node.
type Chunk struct {
	// Bytes is the chunk payload entering phase 0.
	Bytes int64
	// Resident[p] is the maximum bytes resident at the endpoint during
	// phase p. The last entry is the terminal partition (final results
	// awaiting RX DMA). len(Resident) = phases + 1.
	Resident []int64
	// Prio orders admission (larger = more urgent; LIFO scheduling).
	Prio int64

	// state is endpoint-private bookkeeping.
	state any
}

// Phases returns the number of algorithm phases the chunk passes through.
func (c *Chunk) Phases() int { return len(c.Resident) - 1 }

// Endpoint models the cost of collective processing at one NPU.
// Every method calls fn(arg) exactly once, on the simulation engine,
// when the step is done. A step that waits on nothing may call it
// before returning (the Baseline's Admit with a free window slot). The
// continuation is in the engine's callback-with-context form
// (des.Engine.AtCtx), so a static fn with a pointer arg moves a chunk
// through the endpoint without allocating; des.Call adapts a plain
// func(). Implementations must tolerate being driven by many chunks
// concurrently.
type Endpoint interface {
	// Admit grants the chunk entry (phase-0 buffer space, an FSM slot,
	// the initial TX DMA for ACE). fn(arg) runs when phase 0 may start.
	Admit(c *Chunk, fn func(any), arg any)

	// NextPhase moves the chunk from phase p-1 into phase p.
	NextPhase(c *Chunk, p int, fn func(any), arg any)

	// SourceSend pays the cost of sourcing bytes for one outgoing message
	// of phase p. fn(arg) runs when the message may be injected into the
	// fabric.
	SourceSend(c *Chunk, p int, kind PhaseKind, bytes int64, fn func(any), arg any)

	// SinkRecv pays the cost of accepting one fully received message of
	// phase p. reduce reports whether the message is combined with local
	// data (reduction) or only stored.
	SinkRecv(c *Chunk, p int, kind PhaseKind, bytes int64, reduce bool, fn func(any), arg any)

	// Forward pays the store-and-forward cost of relaying bytes through
	// this endpoint (intermediate hop of a routed transfer).
	Forward(bytes int64, fn func(any), arg any)

	// Drain completes the chunk: final results are moved to HBM and all
	// endpoint resources are released.
	Drain(c *Chunk, fn func(any), arg any)
}

// cycle returns the duration of one clock cycle at freqGHz.
func cycle(freqGHz float64) des.Time { return des.Cycles(1, freqGHz) }
