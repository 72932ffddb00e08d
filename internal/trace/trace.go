// Package trace is the simulator's span/counter collector: a per-run,
// allocation-disciplined event timeline that every execution layer
// (rate servers, links, endpoints, collective phases, graph ops,
// training steps) emits onto named tracks. On top of the raw spans a
// metrics pass (Breakdown) computes the paper's overlap accounting —
// total vs exposed vs overlapped communication time per node — and the
// chrome exporter renders the whole timeline as Chrome trace-event JSON
// for Perfetto / chrome://tracing.
//
// Determinism contract: a Tracer records exactly what the simulation
// emits, in emission order, with picosecond timestamps; since the engine
// is deterministic, two runs of the same simulation produce identical
// tracers, and the exporter's output is a pure function of the tracer's
// contents (byte-identical across runs, platforms and worker counts).
//
// Nil fast path: every recording method is safe on a nil *Tracer and
// returns immediately — one pointer test, no allocation — so
// instrumented hot paths cost nothing when tracing is off. Rate servers,
// links and compute streams reach the tracer through busy-interval
// observers attached only when tracing is on. The trace
// package deliberately imports nothing from the simulator (timestamps
// are raw int64 picoseconds), so any layer can depend on it.
package trace

import "fmt"

// Kind classifies a track's resource for the utilization metrics.
type Kind uint8

// Track kinds.
const (
	KindOther Kind = iota
	KindCompute
	KindComm
	KindLink
	KindHBM
	KindDMA
	KindACE
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindComm:
		return "comm"
	case KindLink:
		return "link"
	case KindHBM:
		return "hbm"
	case KindDMA:
		return "dma"
	case KindACE:
		return "ace"
	}
	return "other"
}

// Span categories. The overlap metrics classify spans by category:
// CatCompute spans form a node's compute intervals, CatComm spans its
// communication-in-flight intervals; every other category is rendered
// but not folded into the overlap math.
const (
	CatCompute = "compute"
	CatComm    = "comm"
	CatLink    = "link"
	CatHBM     = "hbm"
	CatDMA     = "dma"
	CatACE     = "ace"
	CatSide    = "side"
	CatStep    = "step"
	CatOp      = "op"
	// CatFault marks injected-fault windows (link outages, stragglers,
	// checkpoint stalls). Rendered only: the overlap breakdown ignores it,
	// so exposed-communication accounting is unchanged by fault spans.
	CatFault = "fault"
)

// TrackID identifies one registered track.
type TrackID int32

// Track is one named timeline: a node×component lane (or a per-job lane
// with Node < 0). Proc groups tracks into exporter processes — one per
// job in partitioned multi-job runs, "" (rendered "sim") otherwise.
type Track struct {
	Proc string
	Name string
	Node int // owning node index; < 0 for non-node tracks
	Kind Kind
}

// Span is one half-open [Start, End) interval on a track. Times are
// picoseconds; Arg carries the payload bytes (0 when not meaningful).
type Span struct {
	Track      TrackID
	Cat        string
	Name       string
	Start, End int64
	Arg        int64
}

// Sample is one counter observation.
type Sample struct {
	Track TrackID
	Name  string
	At    int64
	Value float64
}

// Tracer collects spans and counter samples. The zero value is NOT
// ready; use New. A nil Tracer is the disabled collector: every method
// is a no-op (registration returns track 0).
type Tracer struct {
	proc     string
	tracks   []Track
	byKey    map[string]TrackID
	spans    []Span
	counters []Sample
}

// New returns an empty, enabled tracer.
func New() *Tracer {
	return &Tracer{byKey: make(map[string]TrackID)}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SetProc sets the process label applied to subsequently registered
// tracks (multi-job builds set it to the job name while wiring that
// job's sub-fabric). Safe on nil.
func (t *Tracer) SetProc(proc string) {
	if t == nil {
		return
	}
	t.proc = proc
}

// RegisterTrack returns the ID of the (proc, name) track, creating it on
// first registration. Registration happens at system-build time (single
// threaded, deterministic order); recording methods never register.
// Safe on nil (returns 0).
func (t *Tracer) RegisterTrack(name string, node int, kind Kind) TrackID {
	if t == nil {
		return 0
	}
	key := t.proc + "\x00" + name
	if id, ok := t.byKey[key]; ok {
		return id
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, Track{Proc: t.proc, Name: name, Node: node, Kind: kind})
	t.byKey[key] = id
	return id
}

// Span records one interval. Zero- and negative-length spans are
// dropped. Safe on nil; the only cost of an enabled call is the
// amortized slice append.
func (t *Tracer) Span(track TrackID, cat, name string, start, end, arg int64) {
	if t == nil || end <= start {
		return
	}
	t.spans = append(t.spans, Span{Track: track, Cat: cat, Name: name, Start: start, End: end, Arg: arg})
}

// Count records one counter sample. Safe on nil.
func (t *Tracer) Count(track TrackID, name string, at int64, v float64) {
	if t == nil {
		return
	}
	t.counters = append(t.counters, Sample{Track: track, Name: name, At: at, Value: v})
}

// Tracks returns the registered tracks (shared slice; do not mutate).
func (t *Tracer) Tracks() []Track {
	if t == nil {
		return nil
	}
	return t.tracks
}

// Spans returns the recorded spans (shared slice; do not mutate).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Counters returns the recorded counter samples.
func (t *Tracer) Counters() []Sample {
	if t == nil {
		return nil
	}
	return t.counters
}

// NumSpans returns the span count (0 on nil).
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// track returns the span's track, defensively bounds-checked.
func (t *Tracer) track(id TrackID) Track {
	if int(id) < 0 || int(id) >= len(t.tracks) {
		return Track{Name: fmt.Sprintf("unknown(%d)", id), Node: -1}
	}
	return t.tracks[id]
}
