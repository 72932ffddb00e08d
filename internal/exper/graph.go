package exper

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/graph"
	"acesim/internal/noc"
	"acesim/internal/system"
)

// GraphResult summarizes one execution-graph run.
type GraphResult struct {
	Preset system.Preset
	Topo   noc.Topology
	Name   string
	// Span is the time the last rank finished.
	Span des.Time
	// Compute is the busiest rank's main-stream kernel time.
	Compute des.Time
	// Exposed = Span − Compute: communication (and pipeline bubbles) not
	// hidden behind the critical rank's compute.
	Exposed des.Time
	// Ops / Collectives / Sends count the graph's nodes by kind.
	Ops         int
	Collectives int
	Sends       int
	// Events is the number of discrete events the engine executed (the
	// bench harness's simulator-cost denominator, not a paper metric).
	Events uint64
	// Recovery reports what the fault-recovery path did (zero-valued on
	// fault-free runs).
	Recovery noc.RecoveryStats
	// Hybrid reports the fast path's engagement and refusal reasons.
	Hybrid collectives.HybridStats
	// Power is the energy/power report (nil when accounting is off).
	Power *PowerReport
}

// RunGraph executes a workload graph on a freshly built platform and
// reports the graph-level metrics.
//
// Structural problems are caught by graph.Validate before execution,
// but some properties of user-supplied graphs are only checkable at run
// time — most importantly collective symmetry (every participant of a
// matched collective must issue the same kind and payload in the same
// order), which the runtime enforces by panicking, its contract for
// programming errors in trusted programs. For graphs, which may come
// from hand-written JSON, RunGraph converts those panics into errors so
// a bad trace fails its unit instead of crashing the process (the
// platform is discarded either way — every run builds a fresh system).
func RunGraph(spec system.Spec, g *graph.Graph) (res GraphResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = GraphResult{}, fmt.Errorf("exper: graph %q: %v", g.Name, r)
		}
	}()
	s, run, err := runJob(spec, func(x *graph.Executor) (*graph.Run, error) { return x.Start(g) })
	if err != nil {
		return GraphResult{}, err
	}
	gres, err := run.Result()
	if err != nil {
		return GraphResult{}, fmt.Errorf("exper: graph %q: %w", g.Name, err)
	}
	st := g.Stats()
	return GraphResult{
		Preset:      spec.Preset,
		Topo:        spec.Topo,
		Name:        g.Name,
		Span:        gres.Span,
		Compute:     gres.MaxComputeBusy(),
		Exposed:     gres.Exposed(),
		Ops:         st.Ops,
		Collectives: st.Collectives,
		Sends:       st.Sends,
		Events:      s.Eng.Steps() + s.RT.HybridStats().ShadowSteps,
		Recovery:    s.Net.Recovery(),
		Hybrid:      s.RT.HybridStats(),
		Power:       powerReport(s),
	}, nil
}
