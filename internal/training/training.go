// Package training simulates the distributed training loop of Section V:
// per-layer forward and backward kernels on every NPU's compute stream,
// per-layer weight-gradient all-reduces issued during back-propagation
// (LIFO-prioritized), the cross-iteration dependency that exposes
// communication (forward of layer i in iteration k waits for layer i's
// all-reduce from iteration k-1), and DLRM's blocking all-to-all embedding
// exchanges. The metrics are the paper's: total computation time, exposed
// communication time, and their sum, the iteration time.
//
// A training job is a graph job: Start lowers the per-layer program into
// the internal/graph execution IR (graph.FromModel) and launches it on a
// graph.Executor, the simulator's single execution engine, shared with
// pipeline schedules and hand-written graph traces. Launch only adds the
// training view of the run: node 0's metrics and its fwd/bwd step
// windows. TestTrainingGoldenLegacy pins the lowered programs
// bit-identical to the pre-graph step driver.
package training

import (
	"fmt"

	"acesim/internal/des"
	"acesim/internal/graph"
	"acesim/internal/trace"
	"acesim/internal/workload"
)

// Schedule selects the communication scheduling policy (Table VI).
type Schedule uint8

// Scheduling policies.
const (
	// Overlap issues each layer's all-reduce as soon as its weight
	// gradient is computed, overlapping communication with the rest of
	// back-propagation and the next forward pass.
	Overlap Schedule = iota
	// NoOverlap gathers all gradients and issues one fused collective
	// at the end of back-propagation, then blocks (BaselineNoOverlap).
	NoOverlap
)

// Config tunes a training run. The schedule is not part of it: it is a
// property of the platform's Table VI configuration, passed to Start.
type Config struct {
	Iterations int // the paper simulates 2
	// DLRMOptimized enables the Fig 12 optimization: embedding
	// lookup/update for the next/previous iteration run on a spare
	// memory allocation (graph.SideStreamGBps) and 1 SM, off the
	// critical path, and the forward all-to-all is issued as soon as
	// the prefetch lookup finishes.
	DLRMOptimized bool
}

// DefaultConfig returns the paper's two-iteration setup.
func DefaultConfig() Config {
	return Config{Iterations: 2}
}

// Result summarizes one simulated run (per node; the system is
// symmetric, node 0 is reported).
type Result struct {
	// IterTime is the wall time of the whole run (Config.Iterations).
	IterTime des.Time
	// TotalCompute is the busy time of the main compute stream.
	TotalCompute des.Time
	// ExposedComm = IterTime - TotalCompute: time the training loop sat
	// blocked on communication.
	ExposedComm des.Time
	// FwdWindows / BwdWindows are the [start, end) spans of each
	// iteration's forward and backward passes on node 0 (Fig 9b).
	FwdWindows []Window
	BwdWindows []Window
	// Collectives is the number of collective operations issued per node.
	Collectives int
}

// Window is a half-open time interval.
type Window struct{ Start, End des.Time }

// Dur returns the window length.
func (w Window) Dur() des.Time { return w.End - w.Start }

// Launch is a started (but not yet simulated) training job: every node's
// program has been lowered to a graph and advanced to its first blocking
// point. In a multi-job run, start every job's Launch, drive the shared
// engine to completion once, then collect each Result.
type Launch struct {
	run *graph.Run

	// tracer/track emit node 0's fwd/bwd step windows as spans when the
	// run is traced, labelled fwd.<i>/bwd.<i> (steps[i], registered at
	// Start); emitted guards against double emission when Result is read
	// more than once.
	tracer  *trace.Tracer
	track   trace.TrackID
	steps   [][2]trace.LabelID
	emitted bool
}

// Start lowers the model for every rank of x's platform under the given
// schedule and launches it on x without running the engine. A traced
// engine gets a "steps" track ("<job>/steps" when x.Job is set) that
// Result fills with node 0's fwd.<i>/bwd.<i> windows.
func Start(x *graph.Executor, m *workload.Model, sched Schedule, cfg Config) (*Launch, error) {
	g, err := graph.FromModel(m, graph.ModelConfig{
		Iterations:    cfg.Iterations,
		Overlap:       sched == Overlap,
		DLRMOptimized: cfg.DLRMOptimized,
	}, len(x.Computes))
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	run, err := x.Start(g)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	l := &Launch{run: run}
	if tr := x.Eng.Tracer(); tr != nil {
		name := "steps"
		if x.Job != "" {
			name = x.Job + "/steps"
		}
		l.tracer = tr
		l.track = tr.RegisterTrack(name, -1, trace.KindOther)
		l.steps = make([][2]trace.LabelID, cfg.Iterations)
		for i := range l.steps {
			l.steps[i] = [2]trace.LabelID{
				tr.Label(trace.CatStep, fmt.Sprintf("fwd.%d", i)),
				tr.Label(trace.CatStep, fmt.Sprintf("bwd.%d", i)),
			}
		}
	}
	return l, nil
}

// Cancel aborts the launch's remaining compute (job departure); see
// graph.Run.Cancel for the abort-compute / flush-communication semantics.
func (l *Launch) Cancel() { l.run.Cancel() }

// windows pairs a rank's start/end marks into half-open intervals.
func windows(marks map[string][]des.Time, start, end string) []Window {
	starts, ends := marks[start], marks[end]
	n := len(starts)
	if len(ends) < n {
		n = len(ends)
	}
	ws := make([]Window, n)
	for i := 0; i < n; i++ {
		ws[i] = Window{Start: starts[i], End: ends[i]}
	}
	return ws
}

// Result returns node 0's metrics. It errors if the engine drained while
// some node was still blocked (deadlock).
func (l *Launch) Result() (Result, error) {
	gres, err := l.run.Result()
	if err != nil {
		return Result{}, fmt.Errorf("training: %w", err)
	}
	r0 := gres.Ranks[0]
	res := Result{
		IterTime: r0.FinishedAt,
		// Per-rank accounting, not Compute.BusyTime(): on a shared
		// fabric the compute stream also carries co-running jobs'
		// kernels, which must not count as this job's compute.
		TotalCompute: r0.ComputeBusy,
		FwdWindows:   windows(r0.Marks, graph.MarkFwdStart, graph.MarkFwdEnd),
		BwdWindows:   windows(r0.Marks, graph.MarkBwdStart, graph.MarkBwdEnd),
		Collectives:  r0.Issued,
	}
	res.ExposedComm = res.IterTime - res.TotalCompute
	if res.ExposedComm < 0 {
		res.ExposedComm = 0
	}
	if l.tracer != nil && !l.emitted {
		l.emitted = true
		for i, w := range res.FwdWindows {
			l.tracer.Span(l.track, l.steps[i][0], int64(w.Start), int64(w.End), 0)
		}
		for i, w := range res.BwdWindows {
			l.tracer.Span(l.track, l.steps[i][1], int64(w.Start), int64(w.End), 0)
		}
	}
	return res, nil
}
