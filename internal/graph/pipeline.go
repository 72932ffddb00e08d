package graph

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/workload"
)

// PipeSchedule selects the microbatch schedule of a synthesized pipeline.
type PipeSchedule uint8

// Pipeline schedules.
const (
	// GPipe runs all forward microbatches, then all backward
	// microbatches, and synchronizes gradients with one fused blocking
	// all-reduce per stage at the end (the blocking baseline).
	GPipe PipeSchedule = iota
	// OneFOneB interleaves one forward with one backward after a short
	// warmup (the 1F1B steady state) and issues each layer's gradient
	// all-reduce as soon as its last microbatch's weight gradient is
	// computed, overlapping communication with the remaining backward
	// work and the pipeline drain.
	OneFOneB
)

// String names the schedule as spelled in scenario files.
func (s PipeSchedule) String() string {
	if s == OneFOneB {
		return "1f1b"
	}
	return "gpipe"
}

// ParsePipeSchedule resolves a schedule name ("gpipe" or "1f1b"; empty
// defaults to gpipe).
func ParsePipeSchedule(s string) (PipeSchedule, error) {
	switch s {
	case "", "gpipe":
		return GPipe, nil
	case "1f1b", "1F1B":
		return OneFOneB, nil
	}
	return 0, fmt.Errorf("graph: unknown pipeline schedule %q (want gpipe or 1f1b)", s)
}

// PipelineConfig describes a pipeline- or hybrid-parallel synthesis.
type PipelineConfig struct {
	// Model is the layer stack to partition (data-parallel models only;
	// DLRM's model-parallel embeddings have no pipeline analogue here).
	Model *workload.Model
	// Ranks is the total NPU count; Stages must divide it. Each stage
	// occupies a contiguous rank block (a slab of the torus), and with
	// Ranks/Stages > 1 replicas the schedule is hybrid data+pipeline:
	// replica d of stage s runs on rank s*D+d and exchanges activations
	// with replica d of the neighbor stages as routed point-to-point
	// transfers, while each stage's replicas all-reduce their gradients
	// as a group collective over the stage's rank block.
	Ranks  int
	Stages int
	// Microbatches splits the per-NPU mini-batch into equal microbatches
	// (kernel costs and boundary payloads scale by 1/Microbatches).
	Microbatches int
	Schedule     PipeSchedule
	// Iterations chains that many training iterations (0 means the
	// paper's 2). Like the Section V loop, the cross-iteration dependency
	// is where the schedules separate: 1F1B's per-layer all-reduces from
	// iteration k overlap iteration k+1's forward pass, while the
	// blocking GPipe schedule waits on its fused all-reduce before the
	// next iteration may start.
	Iterations int
}

// pipeRank identifies one rank's position in the pipeline.
type pipeRank struct {
	stage int
	repl  int // data-parallel replica index within the stage
}

// slot is one microbatch compute slot of a rank's schedule.
type slot struct {
	fwd bool
	mb  int
}

// scheduleSlots returns the rank's compute-slot order for the schedule.
func scheduleSlots(sched PipeSchedule, stage, stages, mbs int) []slot {
	slots := make([]slot, 0, 2*mbs)
	if sched == GPipe {
		for b := 0; b < mbs; b++ {
			slots = append(slots, slot{fwd: true, mb: b})
		}
		for b := 0; b < mbs; b++ {
			slots = append(slots, slot{fwd: false, mb: b})
		}
		return slots
	}
	// 1F1B: warmup forwards, steady one-forward-one-backward, cooldown
	// backwards. Later stages warm up less; the counts are the standard
	// deadlock-free choice.
	warmup := stages - 1 - stage
	if warmup > mbs {
		warmup = mbs
	}
	f, b := 0, 0
	for f < warmup {
		slots = append(slots, slot{fwd: true, mb: f})
		f++
	}
	for f < mbs {
		slots = append(slots, slot{fwd: true, mb: f})
		f++
		slots = append(slots, slot{fwd: false, mb: b})
		b++
	}
	for b < mbs {
		slots = append(slots, slot{fwd: false, mb: b})
		b++
	}
	return slots
}

// splitStages partitions the layer list into contiguous stages balanced
// by forward MACs (each stage non-empty).
func splitStages(layers []workload.Layer, stages int) [][2]int {
	var total float64
	for _, l := range layers {
		total += l.FwdMACs
	}
	bounds := make([][2]int, 0, stages)
	start, cum := 0, 0.0
	for s := 0; s < stages; s++ {
		end := start + 1
		cum += layers[start].FwdMACs
		// Close the stage once its cumulative share reaches the target,
		// keeping one layer per remaining stage.
		for end < len(layers)-(stages-s-1) && cum < total*float64(s+1)/float64(stages) {
			cum += layers[end].FwdMACs
			end++
		}
		bounds = append(bounds, [2]int{start, end})
		start = end
	}
	return bounds
}

// Pipeline synthesizes a pipeline-parallel (or hybrid data+pipeline)
// execution graph from a layer-stack model: stages over contiguous rank
// blocks, microbatched forward/backward kernels, inter-stage activations
// and gradients as routed point-to-point transfers, and per-stage group
// all-reduces for the data-parallel replicas.
func Pipeline(cfg PipelineConfig) (*Graph, error) {
	m := cfg.Model
	if m == nil {
		return nil, fmt.Errorf("graph: pipeline without a model")
	}
	if m.Parallelism != workload.DataParallel {
		return nil, fmt.Errorf("graph: pipeline synthesis needs a data-parallel layer stack, %q is not", m.Name)
	}
	if cfg.Stages < 2 {
		return nil, fmt.Errorf("graph: %d pipeline stages (want >= 2)", cfg.Stages)
	}
	if cfg.Stages > len(m.Layers) {
		return nil, fmt.Errorf("graph: %d stages for %d layers", cfg.Stages, len(m.Layers))
	}
	if cfg.Ranks < 2 || cfg.Ranks%cfg.Stages != 0 {
		return nil, fmt.Errorf("graph: %d ranks not divisible into %d stages", cfg.Ranks, cfg.Stages)
	}
	if cfg.Microbatches < 1 {
		return nil, fmt.Errorf("graph: %d microbatches (want >= 1)", cfg.Microbatches)
	}
	iters := cfg.Iterations
	if iters == 0 {
		iters = 2
	}
	if iters < 0 {
		return nil, fmt.Errorf("graph: negative iteration count")
	}
	mbs := cfg.Microbatches
	repl := cfg.Ranks / cfg.Stages
	bounds := splitStages(m.Layers, cfg.Stages)
	for _, b := range bounds {
		if last := m.Layers[b[1]-1]; b[1] < len(m.Layers) && last.ActOutBytes <= 0 {
			return nil, fmt.Errorf("graph: boundary layer %q has no activation size", last.Name)
		}
	}

	g := &Graph{
		Name:  fmt.Sprintf("%s-pipe%dx%d-%s", m.Name, cfg.Stages, repl, cfg.Schedule),
		Ranks: cfg.Ranks,
	}
	// sendF/sendB[rank][iter*mbs+mb] are the boundary transfer ops a
	// neighbor stage's slots depend on. Backward sends flow from higher
	// ranks, which are generated later, so a slot's first kernel gets a
	// placeholder last dep, patched once every op exists.
	type ref struct{ rank, slot int }
	type need struct {
		op int // ID (and index) of the op whose last dep is the placeholder
		ref
	}
	sendF := make([][]int, cfg.Ranks)
	sendB := make([][]int, cfg.Ranks)
	var needF, needB []need
	for r := range sendF {
		sendF[r] = make([]int, iters*mbs)
		sendB[r] = make([]int, iters*mbs)
		for b := range sendF[r] {
			sendF[r][b], sendB[r][b] = -1, -1
		}
	}
	lw := &lowerer{g: g}
	// await makes the next op emitted wait on a neighbor's boundary
	// transfer, as its last dep.
	await := func(needs *[]need, rf ref) {
		*needs = append(*needs, need{len(g.Ops), rf})
		lw.chain = append(lw.chain, -1)
	}

	for rank := 0; rank < cfg.Ranks; rank++ {
		pr := pipeRank{stage: rank / repl, repl: rank % repl}
		lo, hi := bounds[pr.stage][0], bounds[pr.stage][1]
		stageGrad := int64(0)
		for li := lo; li < hi; li++ {
			stageGrad += m.Layers[li].GradBytes()
		}
		group := make([]int, repl)
		for d := range group {
			group[d] = pr.stage*repl + d
		}
		actIn, actOut := int64(0), int64(0)
		if pr.stage > 0 {
			actIn = ceilDivInt64(m.Layers[lo-1].ActOutBytes, mbs)
		}
		if pr.stage < cfg.Stages-1 {
			actOut = ceilDivInt64(m.Layers[hi-1].ActOutBytes, mbs)
		}

		lw.beginRank(rank)
		// arOps[it][li] is iteration it's all-reduce for layer li (1F1B),
		// or the stage's fused all-reduce at [it][lo] (GPipe).
		arOps := make([][]int, iters)
		for it := range arOps {
			arOps[it] = make([]int, len(m.Layers))
			for li := range arOps[it] {
				arOps[it][li] = -1
			}
		}
		for it := 0; it < iters; it++ {
			for _, sl := range scheduleSlots(cfg.Schedule, pr.stage, cfg.Stages, mbs) {
				tag := fmt.Sprintf("it%d.s%d.mb%d.", it, pr.stage, sl.mb)
				slotIdx := it*mbs + sl.mb
				if sl.fwd {
					for li := lo; li < hi; li++ {
						l := m.Layers[li]
						if cfg.Schedule == OneFOneB && it > 0 && sl.mb == 0 && arOps[it-1][li] >= 0 {
							// Cross-iteration dependency (Section V): the
							// layer's forward needs last iteration's
							// gradients applied. This is where 1F1B's
							// early all-reduces pay off: most have
							// completed under the forward of the layers
							// before this one.
							lw.wait(arOps[it-1][li])
						}
						if li == lo && pr.stage > 0 {
							// The first kernel of the slot waits for the
							// activation.
							await(&needF, ref{rank - repl, slotIdx})
						}
						lw.kernel(tag+l.Name+".fwd", l.FwdMACs/float64(mbs), ceilDivInt64(l.FwdBytes, mbs), 0)
					}
					if pr.stage < cfg.Stages-1 {
						sendF[rank][slotIdx] = lw.emit(Op{
							Name: tag + "act.send", Kind: OpSend,
							Bytes: actOut, Dst: rank + repl,
						}, lw.chain)
					}
					continue
				}
				if pr.stage < cfg.Stages-1 {
					// The first kernel of the slot waits for the gradient.
					await(&needB, ref{rank + repl, slotIdx})
				}
				for li := hi - 1; li >= lo; li-- {
					l := m.Layers[li]
					if li > 0 {
						lw.kernel(tag+l.Name+".igrad", l.IgradMACs/float64(mbs), ceilDivInt64(l.IgradBytes, mbs), 0)
					}
					lw.kernel(tag+l.Name+".wgrad", l.WgradMACs/float64(mbs), ceilDivInt64(l.WgradBytes, mbs), 0)
					if cfg.Schedule == OneFOneB && repl > 1 && sl.mb == mbs-1 && l.GradBytes() > 0 {
						// Overlap: the layer's gradients are complete once
						// its last microbatch's wgrad lands — all-reduce
						// them while the drain (and the next iteration's
						// forward) proceeds.
						arOps[it][li] = lw.emit(Op{
							Name: tag + l.Name + ".ar", Kind: OpCollective,
							Coll: collectives.AllReduce, Bytes: l.GradBytes(), Group: group,
						}, lw.chain)
					}
				}
				if pr.stage > 0 {
					sendB[rank][slotIdx] = lw.emit(Op{
						Name: tag + "grad.send", Kind: OpSend,
						Bytes: actIn, Dst: rank - repl,
					}, lw.chain)
				}
			}
			if cfg.Schedule == GPipe && repl > 1 && stageGrad > 0 {
				// Blocking baseline: one fused group all-reduce per stage
				// at the end of the backward pass, waited on before the
				// next iteration may start (NoOverlap semantics).
				arOps[it][lo] = lw.emit(Op{
					Name: fmt.Sprintf("it%d.s%d.fused.ar", it, pr.stage), Kind: OpCollective,
					Coll: collectives.AllReduce, Bytes: stageGrad, Group: group,
				}, lw.chain)
				lw.wait(arOps[it][lo])
			}
		}
		// Drain: the measured span covers full gradient synchronization.
		for li := range m.Layers {
			if ar := arOps[iters-1][li]; ar >= 0 {
				lw.wait(ar)
			}
		}
		lw.mark(MarkEnd, true)
	}

	// Patch the cross-rank boundary dependencies now that every rank's
	// ops (and so every transfer op ID) exist.
	patch := func(needs []need, send [][]int, what string) error {
		for _, n := range needs {
			dep := send[n.rank][n.slot]
			if dep < 0 {
				return fmt.Errorf("graph: pipeline wiring bug: no %s transfer from rank %d slot %d", what, n.rank, n.slot)
			}
			deps := g.Ops[n.op].Deps
			deps[len(deps)-1] = dep
		}
		return nil
	}
	if err := patch(needF, sendF, "activation"); err != nil {
		return nil, err
	}
	if err := patch(needB, sendB, "gradient"); err != nil {
		return nil, err
	}
	return g, nil
}
