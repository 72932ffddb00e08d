// Package fault implements the scenario event track: a timed list of
// platform dynamics — link failure/restore/degradation, NPU stragglers,
// checkpoint/restart stalls, and job departures — applied to a built
// system on the deterministic simulation timeline. Events are ordinary
// engine events scheduled at build time, so a faulted run stays a pure
// function of its inputs (byte-identical across runner worker counts),
// and fault windows are emitted as spans on a dedicated "faults" track
// when tracing is on.
package fault

import (
	"fmt"

	"acesim/internal/des"
	"acesim/internal/noc"
	"acesim/internal/npu"
	"acesim/internal/trace"
)

// Action names one kind of timed event.
type Action string

const (
	// LinkDown fails a link: in-flight messages on it are dropped and the
	// fabric reissues them under the recovery policy.
	LinkDown Action = "link_down"
	// LinkUp restores a failed link and wakes parked retries.
	LinkUp Action = "link_up"
	// LinkDegrade scales a link's bandwidth by Factor (1 restores it).
	LinkDegrade Action = "link_degrade"
	// Straggler scales kernel durations on the target NPU(s) by Factor
	// (1 restores nominal speed).
	Straggler Action = "straggler"
	// Checkpoint stalls the target NPU(s)' compute stream for CostUs
	// (checkpoint/restart cost modeling).
	Checkpoint Action = "checkpoint"
	// JobDepart cancels the named job's remaining compute mid-run; its
	// outstanding communication flushes (see graph.Run.Cancel).
	JobDepart Action = "job_depart"
)

// LinkRef names one unidirectional link by its source node, dimension and
// direction — the same coordinates noc uses.
type LinkRef struct {
	Node int `json:"node"`
	Dim  int `json:"dim"`
	Dir  int `json:"dir"`
}

func (l LinkRef) String() string { return fmt.Sprintf("(%d,d%d,%+d)", l.Node, l.Dim, l.Dir) }

// validate range-checks the reference against a topology.
func (l LinkRef) validate(t noc.Topology) error {
	if l.Node < 0 || l.Node >= t.N() {
		return fmt.Errorf("link node %d out of range [0,%d)", l.Node, t.N())
	}
	if l.Dim < 0 || l.Dim >= t.NumDims() {
		return fmt.Errorf("link dim %d out of range [0,%d)", l.Dim, t.NumDims())
	}
	if l.Dir != +1 && l.Dir != -1 {
		return fmt.Errorf("link dir %d must be +1 or -1", l.Dir)
	}
	if !t.HasLink(noc.NodeID(l.Node), noc.Dim(l.Dim), l.Dir) {
		return fmt.Errorf("no link at %s in %s (mesh boundary or degenerate dimension)", l, t)
	}
	return nil
}

// Event is one entry on the timed track.
type Event struct {
	// AtUs is the simulation time the event fires, microseconds.
	AtUs float64 `json:"at_us"`
	// Action selects the dynamics; see the Action constants.
	Action Action `json:"action"`
	// Link targets link actions.
	Link *LinkRef `json:"link,omitempty"`
	// Node targets straggler/checkpoint actions; nil means every node.
	// (A pointer because node 0 is a valid target.)
	Node *int `json:"node,omitempty"`
	// Factor is the link_degrade bandwidth scale or straggler slowdown.
	Factor float64 `json:"factor,omitempty"`
	// CostUs is the checkpoint stall duration, microseconds.
	CostUs float64 `json:"cost_us,omitempty"`
	// Job scopes the event to one named sub-job of a multi-job scenario
	// (required there for fabric events in partitioned mode, since link
	// and node coordinates are then local to that job's partition). For
	// job_depart on a single-job unit it may stay empty — the unit's only
	// job departs.
	Job string `json:"job,omitempty"`
}

// At returns the event's engine time.
func (e Event) At() des.Time { return des.Micros(e.AtUs) }

// Validate checks the event against the topology its coordinates address
// (the full fabric, or the job's partition shape when scoped).
func (e Event) Validate(t noc.Topology) error {
	if e.AtUs < 0 {
		return fmt.Errorf("at_us %g is negative", e.AtUs)
	}
	switch e.Action {
	case LinkDown, LinkUp:
		if e.Link == nil {
			return fmt.Errorf("%s needs a link target", e.Action)
		}
		return e.Link.validate(t)
	case LinkDegrade:
		if e.Link == nil {
			return fmt.Errorf("%s needs a link target", e.Action)
		}
		if e.Factor <= 0 {
			return fmt.Errorf("%s needs factor > 0, got %g", e.Action, e.Factor)
		}
		return e.Link.validate(t)
	case Straggler:
		if e.Factor <= 0 {
			return fmt.Errorf("%s needs factor > 0, got %g", e.Action, e.Factor)
		}
		return e.checkNode(t)
	case Checkpoint:
		if e.CostUs <= 0 {
			return fmt.Errorf("%s needs cost_us > 0, got %g", e.Action, e.CostUs)
		}
		return e.checkNode(t)
	case JobDepart:
		return nil
	default:
		return fmt.Errorf("unknown action %q", e.Action)
	}
}

func (e Event) checkNode(t noc.Topology) error {
	if e.Node != nil && (*e.Node < 0 || *e.Node >= t.N()) {
		return fmt.Errorf("node %d out of range [0,%d)", *e.Node, t.N())
	}
	return nil
}

// nodes expands the event's NPU target set over n nodes.
func (e Event) nodes(n int) []int {
	if e.Node != nil {
		return []int{*e.Node}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// NeedsRecovery reports whether any event can drop traffic — those runs
// must enable the fabric's faults, with a recovery policy, before
// traffic is issued.
func NeedsRecovery(events []Event) bool {
	for _, e := range events {
		if e.Action == LinkDown || e.Action == LinkUp {
			return true
		}
	}
	return false
}

// Recovery is the scenario-facing retry policy; zero fields take the
// defaults Policy fills.
type Recovery struct {
	TimeoutUs  float64 `json:"timeout_us,omitempty"`
	Backoff    float64 `json:"backoff,omitempty"`
	MaxRetries int     `json:"max_retries,omitempty"`
}

// Validate rejects nonsensical retry tuning.
func (r *Recovery) Validate() error {
	if r == nil {
		return nil
	}
	if r.TimeoutUs < 0 {
		return fmt.Errorf("recovery timeout_us %g is negative", r.TimeoutUs)
	}
	if r.Backoff != 0 && r.Backoff < 1 {
		return fmt.Errorf("recovery backoff %g must be >= 1", r.Backoff)
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("recovery max_retries %d is negative", r.MaxRetries)
	}
	return nil
}

// Policy lowers the scenario policy to the fabric's form, filling the
// defaults: 50 us initial timeout, doubling per attempt, parking after 10
// retries. Safe on a nil receiver (all defaults).
func (r *Recovery) Policy() noc.RecoveryPolicy {
	p := noc.RecoveryPolicy{Timeout: 50 * des.Microsecond, Backoff: 2, MaxRetries: 10}
	if r != nil {
		if r.TimeoutUs > 0 {
			p.Timeout = des.Micros(r.TimeoutUs)
		}
		if r.Backoff >= 1 {
			p.Backoff = r.Backoff
		}
		if r.MaxRetries > 0 {
			p.MaxRetries = r.MaxRetries
		}
	}
	return p
}

// Track is a scenario's full fault specification: the timed events plus
// the recovery policy link faults retry under.
type Track struct {
	Events   []Event
	Recovery *Recovery
}

// NeedsRecovery reports whether the track downs links.
func (tk *Track) NeedsRecovery() bool {
	return tk != nil && NeedsRecovery(tk.Events)
}

// Target is what a scheduler mutates: one fabric, its compute engines,
// and a job-departure callback (nil ignores departures).
type Target struct {
	Net      *noc.Network
	Computes []*npu.Compute
	Depart   func(job string)
	// Label namespaces the tracer's fault track ("" -> "faults"), so each
	// tenant of a partitioned run gets its own track.
	Label string
}

// Scheduler applies events to one target and keeps the window bookkeeping
// that turns down/up (and slow/restore) pairs into trace spans. Windows
// still open when the run ends are not emitted.
type Scheduler struct {
	eng *des.Engine
	tg  Target

	tracer     *trace.Tracer
	track      trace.TrackID
	downAt     map[LinkRef]des.Time
	degAt      map[LinkRef]degWindow
	slowAt     map[int]slowWindow
	registered bool
}

type degWindow struct {
	start  des.Time
	factor float64
}

type slowWindow struct {
	start  des.Time
	factor float64
}

// NewScheduler builds a scheduler for one target. Events added to it are
// registered on the engine immediately; registration order is the
// deterministic tiebreak for same-instant events, so callers must add
// events in a stable order.
func NewScheduler(eng *des.Engine, tg Target) *Scheduler {
	s := &Scheduler{eng: eng, tg: tg}
	if tr := eng.Tracer(); tr != nil {
		s.tracer = tr
		s.downAt = make(map[LinkRef]des.Time)
		s.degAt = make(map[LinkRef]degWindow)
		s.slowAt = make(map[int]slowWindow)
	}
	return s
}

// Add schedules one event.
func (s *Scheduler) Add(e Event) {
	if s.tracer != nil && !s.registered {
		// Register lazily so targets that never receive events add no
		// tracks (trace output stays byte-identical without an event
		// track).
		name := "faults"
		if s.tg.Label != "" {
			name = s.tg.Label + "/faults"
		}
		s.track = s.tracer.RegisterTrack(name, -1, trace.KindOther)
		s.registered = true
	}
	s.eng.At(e.At(), func() { s.apply(e) })
}

func (s *Scheduler) apply(e Event) {
	now := s.eng.Now()
	switch e.Action {
	case LinkDown:
		s.tg.Net.SetLinkUp(noc.NodeID(e.Link.Node), noc.Dim(e.Link.Dim), e.Link.Dir, false)
		if s.tracer != nil {
			s.downAt[*e.Link] = now
		}
	case LinkUp:
		s.tg.Net.SetLinkUp(noc.NodeID(e.Link.Node), noc.Dim(e.Link.Dim), e.Link.Dir, true)
		if s.tracer != nil {
			if start, ok := s.downAt[*e.Link]; ok {
				delete(s.downAt, *e.Link)
				s.span(fmt.Sprintf("link_down%s", *e.Link), start, now)
			}
		}
	case LinkDegrade:
		s.tg.Net.DegradeLink(noc.NodeID(e.Link.Node), noc.Dim(e.Link.Dim), e.Link.Dir, e.Factor)
		if s.tracer != nil {
			if w, ok := s.degAt[*e.Link]; ok {
				delete(s.degAt, *e.Link)
				s.span(fmt.Sprintf("link_degrade%s x%g", *e.Link, w.factor), w.start, now)
			}
			if e.Factor != 1 {
				s.degAt[*e.Link] = degWindow{start: now, factor: e.Factor}
			}
		}
	case Straggler:
		for _, nd := range e.nodes(len(s.tg.Computes)) {
			s.tg.Computes[nd].SetSlowFactor(e.Factor)
			if s.tracer != nil {
				if w, ok := s.slowAt[nd]; ok {
					delete(s.slowAt, nd)
					s.span(fmt.Sprintf("straggler(node %d) x%g", nd, w.factor), w.start, now)
				}
				if e.Factor != 1 {
					s.slowAt[nd] = slowWindow{start: now, factor: e.Factor}
				}
			}
		}
	case Checkpoint:
		d := des.Micros(e.CostUs)
		for _, nd := range e.nodes(len(s.tg.Computes)) {
			s.tg.Computes[nd].Stall(d)
			s.span(fmt.Sprintf("checkpoint(node %d)", nd), now, now+d)
		}
	case JobDepart:
		if s.tg.Depart != nil {
			s.tg.Depart(e.Job)
		}
		s.span(fmt.Sprintf("job_depart(%s)", e.Job), now, now)
	}
}

func (s *Scheduler) span(name string, start, end des.Time) {
	if s.tracer == nil {
		return
	}
	s.tracer.Span(s.track, s.tracer.Label(trace.CatFault, name), int64(start), int64(end), 0)
}

// Schedule registers every event on the engine against one target. Call
// after the system is built and before the engine runs.
func Schedule(eng *des.Engine, events []Event, tg Target) {
	if len(events) == 0 {
		return
	}
	s := NewScheduler(eng, tg)
	for _, e := range events {
		s.Add(e)
	}
}
