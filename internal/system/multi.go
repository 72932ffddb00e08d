package system

import (
	"fmt"

	"acesim/internal/collectives"
	"acesim/internal/des"
	"acesim/internal/fault"
	"acesim/internal/graph"
	"acesim/internal/noc"
)

// JobPlacement locates one concurrent job on the platform fabric. A nil
// Part places the job on the shared full fabric (interference mode: every
// job runs on all NPUs and contends for endpoints, links and compute). A
// non-nil Part carves out a disjoint sub-torus (isolation mode: the job
// sees a private fabric of Part.Shape with its own links and NPUs).
type JobPlacement struct {
	Name string
	Part *noc.Partition
}

// JobSystem is one job's view of a multi-job platform: the (sub)fabric it
// runs on plus the collective stream it issues on.
type JobSystem struct {
	Name   string
	Part   noc.Partition // identity partition in shared mode
	Shared bool
	Sys    *System
	Stream collectives.StreamID
}

// Executor builds a graph executor for this job, tagged and streamed so
// it can co-run with the other jobs of the Multi.
func (js *JobSystem) Executor() *graph.Executor {
	x := js.Sys.Executor()
	x.Stream, x.Job = js.Stream, js.Name
	return x
}

// Multi is a multi-job platform: N concurrent jobs on one simulated
// timeline, either sharing the full fabric or isolated on disjoint
// sub-torus partitions.
type Multi struct {
	Spec Spec
	Eng  *des.Engine
	Jobs []*JobSystem
	// Shared is the common substrate in interference mode (nil when the
	// jobs are partitioned).
	Shared *System

	// Job-departure registry for job-scoped job_depart events.
	departFns map[string]func()
	departed  map[string]bool
}

// OnDepart registers the callback run when the named job departs. If the
// departure already fired (the job was scheduled to arrive after its own
// departure), the callback runs immediately.
func (m *Multi) OnDepart(job string, fn func()) {
	if m.departed[job] {
		fn()
		return
	}
	if m.departFns == nil {
		m.departFns = make(map[string]func())
	}
	m.departFns[job] = fn
}

func (m *Multi) depart(job string) {
	if m.departed == nil {
		m.departed = make(map[string]bool)
	}
	m.departed[job] = true
	if fn := m.departFns[job]; fn != nil {
		fn()
	}
}

// job finds a job system by name (nil if unknown).
func (m *Multi) job(name string) *JobSystem {
	for _, js := range m.Jobs {
		if js.Name == name {
			return js
		}
	}
	return nil
}

// BuildMulti constructs a platform for the given concurrent jobs. All
// placements must be shared, or all must be disjoint partitions of the
// spec's torus; mixing the two modes is rejected (a shared job would
// silently overlap every partition).
func BuildMulti(spec Spec, jobs []JobPlacement) (*Multi, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("system: no jobs")
	}
	// Resolve names once so validation and construction agree.
	names := make([]string, len(jobs))
	seen := make(map[string]bool, len(jobs))
	shared, partitioned := 0, 0
	for i, j := range jobs {
		names[i] = j.Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("job%d", i)
		}
		if seen[names[i]] {
			return nil, fmt.Errorf("system: duplicate job name %q", names[i])
		}
		seen[names[i]] = true
		if j.Part == nil {
			shared++
			continue
		}
		partitioned++
		if !j.Part.Full.Equal(spec.Topo) {
			return nil, fmt.Errorf("system: job %q partition %s carved from %s, platform is %s",
				names[i], j.Part, j.Part.Full, spec.Topo)
		}
		if err := j.Part.Validate(); err != nil {
			return nil, fmt.Errorf("system: job %q: %w", names[i], err)
		}
		for k := 0; k < i; k++ {
			if jobs[k].Part != nil && j.Part.Overlaps(*jobs[k].Part) {
				return nil, fmt.Errorf("system: job %q partition %s overlaps job %d's %s",
					names[i], j.Part, k, jobs[k].Part)
			}
		}
	}
	if shared > 0 && partitioned > 0 {
		return nil, fmt.Errorf("system: cannot mix shared and partitioned placements (%d shared, %d partitioned)", shared, partitioned)
	}

	m := &Multi{Spec: spec, Eng: des.NewEngine()}
	if shared > 0 {
		// Interference mode: one substrate, one collective stream per job.
		// Fabric-scoped fault events are scheduled by the substrate build;
		// job-scoped ones (departures) are handled below against the Multi.
		ss := spec
		ss.Coll.Streams = len(jobs)
		sys, err := BuildOn(m.Eng, ss)
		if err != nil {
			return nil, err
		}
		if spec.Engine != collectives.EngineDES {
			// Streams > 1 already refuses the fast path; the explicit block
			// records the real reason (concurrent jobs share the fabric).
			sys.RT.BlockHybrid("multijob")
		}
		m.Shared = sys
		for i := range jobs {
			m.Jobs = append(m.Jobs, &JobSystem{
				Name:   names[i],
				Part:   noc.FullPartition(spec.Topo),
				Shared: true,
				Sys:    sys,
				Stream: collectives.StreamID(i),
			})
		}
		if err := m.scheduleFaults(spec.Faults); err != nil {
			return nil, err
		}
		return m, nil
	}
	// Isolation mode: one private sub-fabric per job on the common
	// engine. Construction order is job order, so the build (and thus
	// the timeline) is deterministic. Each job's tracks are registered
	// under its own trace process so identically named per-node lanes of
	// different partitions stay distinct. The event track is stripped
	// from the sub-builds (its coordinates are not partition-local and
	// would be double-scheduled); job-scoped events are applied below,
	// against each job's private fabric, whose faults are enabled under
	// the track's recovery policy.
	faults := spec.Faults
	spec.Faults = nil
	for i, j := range jobs {
		spec.Tracer.SetProc(names[i])
		sys, err := BuildOn(m.Eng, Respec(spec, j.Part.Shape))
		if err != nil {
			spec.Tracer.SetProc("")
			return nil, fmt.Errorf("system: job %q: %w", names[i], err)
		}
		if spec.Engine != collectives.EngineDES {
			// Partitioned jobs co-simulate on one engine; the fast path's
			// pump invariants are per-runtime, so refuse it outright.
			sys.RT.BlockHybrid("multijob")
		}
		if faults.NeedsRecovery() {
			sys.Net.EnableFaults(faults.Recovery.Policy())
		}
		m.Jobs = append(m.Jobs, &JobSystem{Name: names[i], Part: *j.Part, Sys: sys})
	}
	spec.Tracer.SetProc("")
	if err := m.scheduleFaults(faults); err != nil {
		return nil, err
	}
	return m, nil
}

// scheduleFaults applies the job-scoped slice of the event track. In
// partitioned mode a job-scoped link/NPU event addresses the job's private
// sub-fabric in partition-local coordinates; in shared mode fabric events
// are global (scheduled by the substrate build) and only departures carry
// a job scope.
func (m *Multi) scheduleFaults(tk *fault.Track) error {
	if tk == nil {
		return nil
	}
	scheds := make(map[string]*fault.Scheduler)
	for _, e := range tk.Events {
		if e.Job == "" {
			if m.Shared == nil && e.Action != fault.JobDepart {
				return fmt.Errorf("system: %s event needs a job scope in partitioned mode", e.Action)
			}
			// Shared mode: already scheduled by the substrate BuildOn.
			continue
		}
		js := m.job(e.Job)
		if js == nil {
			return fmt.Errorf("system: fault event targets unknown job %q", e.Job)
		}
		sch, ok := scheds[e.Job]
		if !ok {
			label := ""
			if !js.Shared {
				label = js.Name
			}
			sch = fault.NewScheduler(m.Eng, fault.Target{
				Net:      js.Sys.Net,
				Computes: js.Sys.Computes,
				Depart:   m.depart,
				Label:    label,
			})
			scheds[e.Job] = sch
		}
		sch.Add(e)
	}
	return nil
}

// Respec retargets a platform spec at a different fabric shape, re-deriving
// the shape-dependent fields (the ACE SRAM is partitioned per collective
// phase, and a sub-torus with degenerate dimensions has fewer phases).
func Respec(spec Spec, t noc.Topology) Spec {
	spec.Topo = t
	phases := len(collectives.HierarchicalAllReduce(t).Phases)
	if phases == 0 {
		phases = 1
	}
	spec.ACE.Phases = phases
	spec.ACE.Partitions = nil
	return spec
}
