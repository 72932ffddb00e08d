package exper

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/power"
	"acesim/internal/system"
	"acesim/internal/training"
	"acesim/internal/workload"
)

// StreamSpec describes a standing collective stream: Count collectives of
// Bytes each, issued back-to-back per node (the next one as soon as the
// previous completes locally). It models a co-tenant's communication
// load without a compute program attached.
type StreamSpec struct {
	Kind  collectives.Kind
	Bytes int64
	Count int // <= 0 means 1
}

// InterferenceJob is one concurrent job of an interference experiment:
// either a training workload (Model != nil) or a standing collective
// stream.
type InterferenceJob struct {
	Name string
	// Part places the job on a sub-torus carve-out; nil shares the full
	// fabric with every other job.
	Part   *noc.Partition
	Model  *workload.Model
	Train  training.Config
	Stream StreamSpec
	// StartAt delays the job's launch (mid-run arrival); 0 starts it with
	// the run. Completion times are measured from the job's own start, so
	// a late arrival is not charged for the time before it existed. Solo
	// baselines ignore it (the job alone, from t=0).
	StartAt des.Time
}

// InterferenceJobResult reports one job's co-run outcome against its solo
// baseline (the identical job alone on the identical placement).
type InterferenceJobResult struct {
	Name      string
	Placement string
	Kind      string // "training" or "stream"
	Solo      des.Time
	Co        des.Time
	Slowdown  float64
	// Training is the co-run training result (training jobs only).
	Training *training.Result
}

// InterferenceResult is the outcome of one multi-job experiment.
type InterferenceResult struct {
	Jobs []InterferenceJobResult
	// Recovery aggregates the co-run's fault-recovery stats across every
	// fabric (the shared substrate, or all tenant sub-fabrics).
	Recovery noc.RecoveryStats
	// Power is the co-run timeline's energy/power report, aggregated
	// across every fabric (nil when accounting is off). Solo baselines
	// are never charged — the report describes the co-run, like the
	// trace.
	Power *PowerReport
	// Hybrid aggregates the co-run's fast-path engagement and refusal
	// reasons across every fabric.
	Hybrid collectives.HybridStats
}

// MaxSlowdown returns the worst per-job slowdown.
func (r InterferenceResult) MaxSlowdown() float64 {
	worst := 0.0
	for _, j := range r.Jobs {
		if j.Slowdown > worst {
			worst = j.Slowdown
		}
	}
	return worst
}

// MinSlowdown returns the best (least-slowed) per-job slowdown, or 0 for
// an empty result.
func (r InterferenceResult) MinSlowdown() float64 {
	best := 0.0
	for i, j := range r.Jobs {
		if i == 0 || j.Slowdown < best {
			best = j.Slowdown
		}
	}
	return best
}

// Interference runs N concurrent jobs on one platform — sharing the full
// fabric or isolated on disjoint sub-torus partitions — and reports each
// job's completion time against a solo run of the same job on the same
// placement. Isolation mode should measure ~1.0x per job (partitions
// share nothing); shared mode reproduces the Section III interference
// trend at fabric scale.
func Interference(spec system.Spec, jobs []InterferenceJob) (InterferenceResult, error) {
	if len(jobs) == 0 {
		return InterferenceResult{}, fmt.Errorf("exper: interference with no jobs")
	}
	placements := make([]system.JobPlacement, len(jobs))
	for i, j := range jobs {
		name := j.Name
		if name == "" {
			name = fmt.Sprintf("job%d", i)
		}
		placements[i] = system.JobPlacement{Name: name, Part: j.Part}
	}

	// Solo baselines: each job alone on its own placement. A single-job
	// BuildMulti is bit-identical to the classic one-job system. Solo
	// runs are deterministic and a partition's origin does not change
	// its private sub-fabric, so jobs identical up to origin (the common
	// symmetric-tenant setup) share one simulation.
	// Solo baselines never trace: the trace (and the metrics derived from
	// it) describes the co-run timeline. They also never see the event
	// track or a delayed arrival — the baseline is the pristine job alone
	// from t=0, which is what makes the co-run's fault/contention slowdown
	// attributable.
	soloSpec := spec
	soloSpec.Tracer = nil
	soloSpec.Faults = nil
	solos := make([]des.Time, len(jobs))
	soloCache := map[string]des.Time{}
	for i := range jobs {
		key := soloKey(jobs[i], placements[i])
		if t, ok := soloCache[key]; ok {
			solos[i] = t
			continue
		}
		m, err := system.BuildMulti(soloSpec, placements[i:i+1])
		if err != nil {
			return InterferenceResult{}, err
		}
		sj := jobs[i]
		sj.StartAt = 0
		runs, err := startJobs(m, []InterferenceJob{sj})
		if err != nil {
			return InterferenceResult{}, err
		}
		m.Eng.Run()
		t, _, err := runs[0].finish()
		if err != nil {
			return InterferenceResult{}, fmt.Errorf("exper: solo %s: %w", placements[i].Name, err)
		}
		solos[i] = t
		soloCache[key] = t
	}

	// Co-run: all jobs on one timeline.
	m, err := system.BuildMulti(spec, placements)
	if err != nil {
		return InterferenceResult{}, err
	}
	runs, err := startJobs(m, jobs)
	if err != nil {
		return InterferenceResult{}, err
	}
	m.Eng.Run()

	res := InterferenceResult{Recovery: multiRecovery(m), Power: multiPower(m), Hybrid: multiHybrid(m)}
	for i, run := range runs {
		co, tres, err := run.finish()
		if err != nil {
			return InterferenceResult{}, fmt.Errorf("exper: co-run %s: %w", placements[i].Name, err)
		}
		jr := InterferenceJobResult{
			Name:      placements[i].Name,
			Placement: m.Jobs[i].Part.String(),
			Kind:      run.kind(),
			Solo:      solos[i],
			Co:        co,
			Slowdown:  float64(co) / float64(solos[i]),
			Training:  tres,
		}
		if m.Jobs[i].Shared {
			jr.Placement = "shared"
		}
		res.Jobs = append(res.Jobs, jr)
	}
	return res, nil
}

// soloKey identifies a job's solo timeline: the placement shape (origin
// is irrelevant alone — every carve-out of one shape is the same private
// fabric) plus the full job configuration.
func soloKey(j InterferenceJob, p system.JobPlacement) string {
	shape := "shared"
	if p.Part != nil {
		shape = p.Part.Shape.String()
	}
	if j.Model != nil {
		return fmt.Sprintf("train|%s|%s|%+v", shape, j.Model.Name, j.Train)
	}
	return fmt.Sprintf("stream|%s|%d|%d|%d", shape, j.Stream.Kind, j.Stream.Bytes, j.Stream.Count)
}

// multiPower aggregates the co-run's energy accounting. Shared mode is
// the substrate system's report; partitioned mode sums the lifetime
// meters across every tenant sub-fabric and folds their samplers onto
// one timeline (the tenants share a clock, so their windows align).
func multiPower(m *system.Multi) *PowerReport {
	if m.Shared != nil {
		return powerReport(m.Shared)
	}
	var (
		u   power.Usage
		sm  *power.Sampler
		cfg *power.Config
	)
	for _, js := range m.Jobs {
		s := js.Sys
		if s.Spec.Power == nil || s.Sampler == nil {
			return nil
		}
		cfg = s.Spec.Power
		su := s.PowerUsage()
		u.ComputeBusy += su.ComputeBusy
		u.HBMBytes += su.HBMBytes
		u.ACEBusy += su.ACEBusy
		u.DMABusy += su.DMABusy
		u.WireBytes += su.WireBytes
		u.InjectedBts += su.InjectedBts
		u.Nodes += su.Nodes
		u.ACEs += su.ACEs
		u.Links += su.Links
		u.FreqGHz = su.FreqGHz
		if sm == nil {
			sm = power.NewSampler(s.Sampler.Window)
		}
		sm.AbsorbFrom(s.Sampler, 1)
		sm.StaticW += s.Sampler.StaticW
	}
	if cfg == nil {
		return nil
	}
	u.Makespan = m.Eng.Now()
	b := cfg.Coeff.Energy(u)
	b.PeakW = sm.PeakW(u.Makespan)
	return &PowerReport{Breakdown: b, Sampler: sm, Makespan: u.Makespan}
}

// multiHybrid folds every distinct runtime's fast-path stats together:
// Engaged if any fabric engaged, with refusal counts summed.
func multiHybrid(m *system.Multi) collectives.HybridStats {
	if m.Shared != nil {
		return m.Shared.RT.HybridStats()
	}
	var agg collectives.HybridStats
	for _, js := range m.Jobs {
		st := js.Sys.RT.HybridStats()
		agg.Mode = st.Mode
		agg.Engaged = agg.Engaged || st.Engaged
		agg.Mirror = agg.Mirror || st.Mirror
		agg.Downgrades += st.Downgrades
		agg.Collectives += st.Collectives
		agg.P2P += st.P2P
		agg.ShadowSteps += st.ShadowSteps
		for k, v := range st.Blocked {
			if agg.Blocked == nil {
				agg.Blocked = map[string]int{}
			}
			agg.Blocked[k] += v
		}
	}
	return agg
}

// multiRecovery folds every distinct fabric's recovery stats together.
func multiRecovery(m *system.Multi) noc.RecoveryStats {
	if m.Shared != nil {
		return m.Shared.Net.Recovery()
	}
	var agg noc.RecoveryStats
	for _, js := range m.Jobs {
		agg = agg.Merge(js.Sys.Net.Recovery())
	}
	return agg
}

// jobRun is one started (or scheduled) job awaiting engine completion.
type jobRun struct {
	launch *training.Launch
	stream *streamRun
	// startAt is when the job actually launched; completion times are
	// measured from it.
	startAt des.Time
	// cancelled is set by a job_depart event; a job departing before its
	// scheduled arrival never starts.
	cancelled bool
	// err holds a launch failure from a delayed start (engine callbacks
	// cannot return errors); surfaced by finish.
	err        error
	isTraining bool
}

// cancel handles a job_depart event at whatever state the job is in.
func (r *jobRun) cancel() {
	r.cancelled = true
	if r.launch != nil {
		r.launch.Cancel()
	}
	if r.stream != nil {
		r.stream.cancel()
	}
}

func (r *jobRun) kind() string {
	if r.isTraining {
		return "training"
	}
	return "stream"
}

// finish collects the job's completion time (from its own start) after the
// engine drained.
func (r *jobRun) finish() (des.Time, *training.Result, error) {
	if r.err != nil {
		return 0, nil, r.err
	}
	if r.launch == nil && r.stream == nil {
		return 0, nil, fmt.Errorf("job departed before its arrival")
	}
	if r.launch != nil {
		tres, err := r.launch.Result()
		if err != nil {
			return 0, nil, err
		}
		return tres.IterTime - r.startAt, &tres, nil
	}
	if r.stream.doneNodes != r.stream.nodes {
		return 0, nil, fmt.Errorf("stream finished on %d/%d nodes (deadlock)", r.stream.doneNodes, r.stream.nodes)
	}
	return r.stream.finishAt - r.startAt, nil, nil
}

// startJobs launches (or schedules, for delayed arrivals) every job of the
// Multi without running the engine, and registers each with the Multi's
// departure registry so a job_depart event cancels the right run.
func startJobs(m *system.Multi, jobs []InterferenceJob) ([]*jobRun, error) {
	runs := make([]*jobRun, len(jobs))
	for i := range jobs {
		runs[i] = &jobRun{}
	}
	for i, j := range jobs {
		js := m.Jobs[i]
		run := runs[i]
		m.OnDepart(js.Name, run.cancel)
		var start func() error
		if j.Model != nil {
			run.isTraining = true
			// Default only the unset fields: a caller's Schedule /
			// DLRMOptimized choices must survive an omitted iteration
			// count.
			tc := j.Train
			def := training.DefaultConfig()
			if tc.Iterations <= 0 {
				tc.Iterations = def.Iterations
			}
			if tc.SideMemGBps <= 0 {
				tc.SideMemGBps = def.SideMemGBps
			}
			model := j.Model
			start = func() error {
				l, err := js.Runner(tc).Start(model)
				if err != nil {
					return fmt.Errorf("exper: job %s: %w", js.Name, err)
				}
				run.launch = l
				run.startAt = m.Eng.Now()
				return nil
			}
		} else {
			if j.Stream.Bytes <= 0 {
				return nil, fmt.Errorf("exper: job %s: stream with non-positive payload %d", js.Name, j.Stream.Bytes)
			}
			if j.Stream.Kind != collectives.AllReduce && j.Stream.Kind != collectives.AllToAll {
				return nil, fmt.Errorf("exper: job %s: stream kind %s not supported (want all-reduce or all-to-all)", js.Name, j.Stream.Kind)
			}
			stream := j.Stream
			start = func() error {
				run.stream = startStream(js, stream)
				run.startAt = m.Eng.Now()
				return nil
			}
		}
		if j.StartAt > 0 {
			m.Eng.At(j.StartAt, func() {
				if run.cancelled {
					return
				}
				if err := start(); err != nil {
					run.err = err
				}
			})
			continue
		}
		if err := start(); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// streamRun drives a standing collective stream on one job's fabric view.
type streamRun struct {
	js        *system.JobSystem
	spec      StreamSpec
	plan      collectives.Plan
	nodes     int
	doneNodes int
	finishAt  des.Time
	// Departure state. The runtime's SPMD contract needs every node of the
	// stream to issue the same collective sequence, but a cancel fires
	// while nodes sit at different chain depths — so cancellation freezes
	// maxIssued (the deepest index any node has issued) and every node
	// keeps issuing up to exactly that index before stopping. All nodes
	// then agree on the final sequence and the in-flight tail flushes
	// instead of wedging the admission window.
	cancelled bool
	maxIssued int
}

// cancel stops the stream after the currently deepest-issued collective.
func (s *streamRun) cancel() { s.cancelled = true }

func startStream(js *system.JobSystem, spec StreamSpec) *streamRun {
	if spec.Count <= 0 {
		spec.Count = 1
	}
	s := &streamRun{js: js, spec: spec, nodes: js.Sys.RT.Nodes()}
	s.plan = collectives.HierarchicalAllReduce(js.Sys.Spec.Topo)
	if spec.Kind == collectives.AllToAll {
		s.plan = collectives.DirectAllToAll(js.Sys.Spec.Topo.N())
	}
	for node := 0; node < s.nodes; node++ {
		s.issue(noc.NodeID(node), 0)
	}
	return s
}

// issue launches the i-th collective at node; its completion chains the
// next one, keeping the stream standing for the whole run (or until a
// departure truncates it at the agreed index).
func (s *streamRun) issue(node noc.NodeID, i int) {
	if i > s.maxIssued {
		s.maxIssued = i
	}
	cs := collectives.Spec{
		Kind:  s.spec.Kind,
		Bytes: s.spec.Bytes,
		Plan:  s.plan,
		Name:  fmt.Sprintf("%s/stream.%d", s.js.Name, i),
	}
	s.js.Sys.RT.IssueOn(s.js.Stream, node, cs, func() {
		proceed := i+1 < s.spec.Count
		if s.cancelled {
			proceed = i < s.maxIssued
		}
		if proceed {
			s.issue(node, i+1)
			return
		}
		s.doneNodes++
		if now := s.js.Sys.Eng.Now(); now > s.finishAt {
			s.finishAt = now
		}
	})
}
