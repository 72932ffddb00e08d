package graph

import (
	"fmt"
	"slices"

	"acesim/internal/collectives"
	"acesim/internal/workload"
)

// ModelConfig selects how a workload.Model is lowered: training.Start
// fills it from its Config and the platform's Table VI schedule. The
// side-stream bandwidth is not a lowering knob (SideStreamGBps).
type ModelConfig struct {
	// Iterations is the number of training iterations (the paper runs 2).
	Iterations int
	// Overlap issues each layer's all-reduce as soon as its weight
	// gradient is computed; false gathers everything into one fused
	// collective at the end of back-propagation and blocks.
	Overlap bool
	// DLRMOptimized lowers the Fig 12 optimization: embedding
	// lookup/update run on the side stream off the critical path and the
	// forward all-to-all is issued as soon as the prefetch finishes.
	// Effective only for hybrid-parallel models under Overlap.
	DLRMOptimized bool
}

// Mark labels the lowered (and synthesized) programs use. The "end" mark
// is each rank's Final op; the pass-boundary pairs reproduce the legacy
// runner's Fig 9b windows.
const (
	MarkFwdStart = "fwd_start"
	MarkFwdEnd   = "fwd_end"
	MarkBwdStart = "bwd_start"
	MarkBwdEnd   = "bwd_end"
	MarkEnd      = "end"
)

// lowerer builds a graph one rank's program at a time. It models the
// legacy sequential driver exactly: kernels and marks advance a single
// main-chain frontier, collective issues hang off the frontier without
// advancing it (issue never blocks), and waits widen the frontier with
// the awaited op so every later step starts no earlier than its
// completion.
type lowerer struct {
	g     *Graph
	rank  int
	chain []int // current main-chain dependency frontier
	// deps is the arena every op's Deps is a window of, capped at its
	// length so an append to one op's deps cannot overwrite another's.
	deps []int
}

// beginRank starts lowering the given rank's program.
func (lw *lowerer) beginRank(rank int) {
	lw.rank = rank
	lw.chain = lw.chain[:0]
}

// reserve presizes g.Ops and the deps arena for more copies of what has
// been lowered so far. FromModel calls it after rank 0, whose program
// every other rank repeats, so the graph grows only while rank 0 is
// lowered.
func (lw *lowerer) reserve(more int) {
	lw.g.Ops = slices.Grow(lw.g.Ops, len(lw.g.Ops)*more)
	lw.deps = slices.Grow(lw.deps, len(lw.deps)*more)
}

// emit appends an op with the given deps and returns its ID. A dep-free
// op keeps nil Deps.
func (lw *lowerer) emit(op Op, deps []int) int {
	op.ID = len(lw.g.Ops)
	op.Rank = lw.rank
	if len(deps) > 0 {
		at := len(lw.deps)
		lw.deps = append(lw.deps, deps...)
		op.Deps = lw.deps[at:len(lw.deps):len(lw.deps)]
	}
	lw.g.Ops = append(lw.g.Ops, op)
	return op.ID
}

// kernel runs a compute kernel on the main stream and advances the chain.
func (lw *lowerer) kernel(name string, macs float64, bytes int64, maxGBps float64) int {
	id := lw.emit(Op{Name: name, Kind: OpCompute, MACs: macs, Bytes: bytes, MaxGBps: maxGBps}, lw.chain)
	lw.chain = lw.chain[:0]
	lw.chain = append(lw.chain, id)
	return id
}

// mark records a labeled timestamp and advances the chain.
func (lw *lowerer) mark(label string, final bool) int {
	id := lw.emit(Op{Name: label, Kind: OpMark, Final: final}, lw.chain)
	lw.chain = lw.chain[:0]
	lw.chain = append(lw.chain, id)
	return id
}

// issue launches a collective off the chain frontier without advancing
// it (the program does not block on issue).
func (lw *lowerer) issue(name string, kind collectives.Kind, bytes, prioBias int64) int {
	return lw.emit(Op{Name: name, Kind: OpCollective, Coll: kind, Bytes: bytes, PrioBias: prioBias}, lw.chain)
}

// wait widens the chain frontier: every later step also depends on id.
func (lw *lowerer) wait(id int) {
	for _, d := range lw.chain {
		if d == id {
			return
		}
	}
	lw.chain = append(lw.chain, id)
}

// side runs a byte transfer on the side stream. deps carries the chain
// point it launches from (or the previous part of its chain) plus any
// gate; the main chain is not advanced.
func (lw *lowerer) side(name string, bytes int64, deps []int) int {
	return lw.emit(Op{Name: name, Kind: OpCompute, Bytes: bytes, Side: true}, deps)
}

// FromModel lowers a workload.Model into an execution graph over the
// given number of ranks — the same per-layer program the legacy training
// driver ran (Section V: forward/backward kernels, LIFO all-reduces
// during back-propagation, the cross-iteration dependency, DLRM's
// blocking all-to-alls and the Fig 12 side-stream optimization), proven
// bit-identical by internal/training's golden test. It is the only way a
// training job becomes runnable: training.Start lowers with it and
// starts the graph on an Executor.
func FromModel(m *workload.Model, cfg ModelConfig, ranks int) (*Graph, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("graph: non-positive iteration count")
	}
	if ranks < 2 {
		return nil, fmt.Errorf("graph: %d ranks (collectives need at least 2)", ranks)
	}
	hybrid := m.Parallelism == workload.HybridParallel
	if hybrid && m.Emb == nil {
		return nil, fmt.Errorf("graph: hybrid model %q without embedding stage", m.Name)
	}
	if hybrid && len(m.Layers) <= m.BottomLayers {
		return nil, fmt.Errorf("graph: hybrid model %q without top layers", m.Name)
	}
	overlap := cfg.Overlap
	optimized := hybrid && cfg.DLRMOptimized && overlap
	globalBatch := m.MiniBatchPerNPU * ranks

	// Every rank runs the same program, so the kernel and collective
	// names are built once per layer.
	type layerNames struct{ fwd, igrad, wgrad, ar string }
	names := make([]layerNames, len(m.Layers))
	for li, l := range m.Layers {
		names[li] = layerNames{l.Name + ".fwd", l.Name + ".igrad", l.Name + ".wgrad", l.Name + ".ar"}
	}
	// Per-iteration collective handles for cross-references, reset for
	// each rank.
	arOps := make([][]int, cfg.Iterations)
	for it := range arOps {
		arOps[it] = make([]int, len(m.Layers))
	}
	a2aF := make([]int, cfg.Iterations)
	a2aB := make([]int, cfg.Iterations)
	sideReady := make([]int, cfg.Iterations)

	g := &Graph{Name: m.Name, Ranks: ranks}
	lw := &lowerer{g: g}
	for rank := 0; rank < ranks; rank++ {
		lw.beginRank(rank)
		// -1 marks "not issued"; a stale reference would name a
		// nonexistent op and fail validation instead of silently
		// depending on op 0.
		for it := range arOps {
			for li := range arOps[it] {
				arOps[it][li] = -1
			}
		}
		for it := range a2aF {
			a2aF[it], a2aB[it], sideReady[it] = -1, -1, -1
		}

		fwdLayer := func(it, li int) {
			l := m.Layers[li]
			if overlap && it > 0 && l.GradBytes() > 0 {
				lw.wait(arOps[it-1][li])
			}
			lw.kernel(names[li].fwd, l.FwdMACs, l.FwdBytes, 0)
		}

		for it := 0; it < cfg.Iterations; it++ {
			// ---------- forward ----------
			lw.mark(MarkFwdStart, false)
			if optimized {
				// Fig 12 side chain: prefetch the next iteration's lookup,
				// then apply the previous iteration's update (gated on its
				// backward all-to-all), overlapped with this iteration's
				// compute.
				prev := append([]int(nil), lw.chain...)
				if it+1 < cfg.Iterations {
					sideReady[it+1] = lw.side("emb.lookup.side", m.Emb.LookupBytes(globalBatch), prev)
					prev = []int{sideReady[it+1]}
				}
				if it > 0 {
					lw.side("emb.update.side", m.Emb.UpdateBytes(globalBatch),
						append(prev, a2aB[it-1]))
				}
				if it > 0 {
					// The prefetched lookup lets the forward all-to-all be
					// issued immediately, yielding priority to the bottom
					// layers' gradient all-reduces.
					lw.wait(sideReady[it])
					a2aF[it] = lw.issue("emb.a2a.fwd", collectives.AllToAll,
						m.Emb.ExchangeBytes(globalBatch), int64(m.BottomLayers+1))
				}
			}
			topStart := len(m.Layers)
			if hybrid {
				topStart = m.BottomLayers
			}
			for li := 0; li < topStart; li++ {
				fwdLayer(it, li)
			}
			if hybrid {
				emb := m.Emb
				if !optimized || it == 0 {
					// No prefetch: the lookup runs on the main stream at
					// the random-access rate, then the exchange is issued.
					lw.kernel("emb.lookup", 0, emb.LookupBytes(globalBatch), workload.EmbRandomGBps)
					a2aF[it] = lw.issue("emb.a2a.fwd", collectives.AllToAll, emb.ExchangeBytes(globalBatch), 0)
				}
				// The forward all-to-all blocks the top MLP (Section V).
				lw.wait(a2aF[it])
				for li := topStart; li < len(m.Layers); li++ {
					fwdLayer(it, li)
				}
			}
			lw.mark(MarkFwdEnd, false)

			// ---------- backward ----------
			lw.mark(MarkBwdStart, false)
			for li := len(m.Layers) - 1; li >= 0; li-- {
				l := m.Layers[li]
				if hybrid && overlap && li == m.BottomLayers-1 {
					// Leaving the top MLP: exchange embedding gradients.
					a2aB[it] = lw.issue("emb.a2a.bwd", collectives.AllToAll, m.Emb.ExchangeBytes(globalBatch), 0)
				}
				if li > 0 {
					lw.kernel(names[li].igrad, l.IgradMACs, l.IgradBytes, 0)
				}
				lw.kernel(names[li].wgrad, l.WgradMACs, l.WgradBytes, 0)
				if overlap && l.GradBytes() > 0 {
					arOps[it][li] = lw.issue(names[li].ar, collectives.AllReduce, l.GradBytes(), 0)
				}
			}
			switch {
			case !overlap:
				// NoOverlap: one fused collective at the end of
				// back-propagation, then block (Table VI).
				fused := lw.issue("fused.ar", collectives.AllReduce, m.TotalGradBytes(), 0)
				if hybrid {
					a2aB[it] = lw.issue("emb.a2a.bwd", collectives.AllToAll, m.Emb.ExchangeBytes(globalBatch), 0)
				}
				lw.wait(fused)
				if hybrid {
					lw.wait(a2aB[it])
					lw.kernel("emb.update", 0, m.Emb.UpdateBytes(globalBatch), workload.EmbRandomGBps)
				}
			case optimized:
				// The embedding update runs on the next iteration's side
				// chain; the main stream never blocks here.
			case hybrid:
				lw.wait(a2aB[it])
				lw.kernel("emb.update", 0, m.Emb.UpdateBytes(globalBatch), workload.EmbRandomGBps)
			}
			lw.mark(MarkBwdEnd, false)

			// Final iteration: drain every outstanding all-reduce so the
			// measured time covers full synchronization.
			if it == cfg.Iterations-1 && overlap {
				for li := range m.Layers {
					if m.Layers[li].GradBytes() > 0 {
						lw.wait(arOps[it][li])
					}
				}
			}
		}
		lw.mark(MarkEnd, true)
		if rank == 0 {
			lw.reserve(ranks - 1)
		}
	}
	return g, nil
}
