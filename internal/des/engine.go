package des

import (
	"math/bits"

	"acesim/internal/trace"
)

// qkey is one heap entry: the event's time and ss = seq<<slotBits | slot,
// where seq is the engine-wide scheduling sequence and slot indexes the
// callback in the engine's slot table. Sequence numbers are unique, so
// comparing ss compares seq; the key carries no pointers, so sifting it
// needs no GC write barriers and the heap is never scanned.
type qkey struct {
	at Time
	ss uint64
}

const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	// maxSeq bounds the sequence so seq<<slotBits never overflows.
	maxSeq = 1<<(64-slotBits) - 1
)

// before reports whether k orders ahead of o: earlier time first, then
// FIFO by scheduling sequence. This (at, seq) total order is the engine's
// determinism contract; every queue implementation must preserve it
// exactly.
//
// It compares (at, ss) as one 128-bit unsigned number, whose borrow is
// the answer: no data-dependent branch for the sift loops to mispredict.
// Event times are never negative (scheduling clamps to now >= 0), so
// the unsigned view of at orders like the signed one.
func (k qkey) before(o qkey) bool {
	_, b := bits.Sub64(k.ss, o.ss, 0)
	_, b = bits.Sub64(uint64(k.at), uint64(o.at), b)
	return b != 0
}

func (k qkey) slot() uint32 { return uint32(k.ss & slotMask) }

// slot holds one scheduled callback. Exactly one of fn / ctxFn is set:
// fn for At/After, ctxFn (+arg) for AtCtx/AfterCtx. lane is set when the
// event waits in (or heads) that lane rather than entering the heap on
// its own (see Lane).
type slot struct {
	fn    func()
	ctxFn func(any)
	arg   any
	lane  *Lane
}

// eventQueue is a hand-rolled 4-ary min-heap over flat 16-byte keys.
//
// Compared to container/heap it avoids the interface{} boxing that costs
// one heap allocation per Push, and the 4-ary layout halves tree depth
// (fewer cache lines touched per sift). The heap property is the partial
// order induced by qkey.before, so pops come out in exact (at, seq) order.
type eventQueue struct {
	items []qkey
}

func (q *eventQueue) len() int { return len(q.items) }

// push inserts k, keeping the heap ordered. The backing slice grows in
// place (append); no per-event allocation occurs.
func (q *eventQueue) push(k qkey) {
	i := len(q.items)
	q.items = append(q.items, k)
	// Sift up: move the hole toward the root until k fits.
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(q.items[p]) {
			break
		}
		q.items[i] = q.items[p]
		i = p
	}
	q.items[i] = k
}

// pop removes the minimum key. Caller must ensure the queue is non-empty.
func (q *eventQueue) pop() qkey {
	top := q.items[0]
	n := len(q.items) - 1
	last := q.items[n]
	q.items = q.items[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// siftDown re-inserts k starting from the root, moving the hole toward
// the leaves past any smaller child.
func (q *eventQueue) siftDown(k qkey) {
	items := q.items
	n := len(items)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if items[c].before(items[min]) {
				min = c
			}
		}
		if !items[min].before(k) {
			break
		}
		items[i] = items[min]
		i = min
	}
	items[i] = k
}

// Lane is a FIFO of events whose times never decrease — the completions
// of a FIFO rate server, for example. Only the lane's head sits in the
// engine's heap; the rest wait in the lane in order, and popping the head
// moves the next one into the heap in the same sift. A lane therefore
// costs the heap one entry however deep its backlog is.
//
// The zero value is an empty lane. A lane belongs to one engine. An idle
// lane holds no storage: its buffer comes from and returns to a pool the
// engine owns.
type Lane struct {
	buf  []qkey // ring buffer (power-of-two length) of keys behind the head
	head int
	n    int
	tail Time // time of the latest event the lane holds
	live bool // the lane's head is in the heap
}

func (l *Lane) popFront() qkey {
	k := l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return k
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use at time 0.
//
// Determinism guarantee: execution order is the total order (at, seq) —
// earlier timestamps first, FIFO among events scheduled for the same
// instant — so a simulation's outcome is a pure function of its inputs,
// independent of platform, map iteration order or wall-clock effects.
type Engine struct {
	now    Time
	q      eventQueue
	seq    uint64
	nSteps uint64
	// slots holds every queued callback, indexed by the low bits of its
	// key; free lists the vacant entries for reuse.
	slots []slot
	free  []uint32
	// laned counts events waiting behind a lane head (not in q).
	laned int
	// lanePool recycles lane ring buffers so idle lanes hold none.
	lanePool [][]qkey
	// tracer is the optional per-run span collector. It is nil by
	// default; every instrumented layer checks the nil fast path, so a
	// tracerless engine pays nothing beyond a pointer test.
	tracer *trace.Tracer
	// perturbs counts mid-run rate changes on resources owned by this
	// engine (resource.Server.SetRate). The hybrid fast path reads it to
	// refuse (or abort) analytic shortcuts when someone rewires server
	// rates under a simulation in flight.
	perturbs uint64
}

// NewEngine returns a fresh engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in picoseconds.
func (e *Engine) Now() Time { return e.now }

// SetTracer attaches a span collector to the engine. Components read it
// at build time to register tracks and wire emitters; setting it after
// a system is built has no effect on that system.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// Tracer returns the attached span collector (nil when tracing is off).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Pending returns the number of queued (not yet executed) events. An
// event whose callback schedules new work — even at the current instant —
// increases Pending until that work is itself executed: the engine never
// runs a callback inline.
func (e *Engine) Pending() int { return e.q.len() + e.laned }

// NextAt returns the timestamp of the next queued event, or false when
// the queue is empty. It lets a co-simulation driver lazily advance a
// secondary engine exactly as far as its event horizon requires.
func (e *Engine) NextAt() (Time, bool) {
	if e.q.len() == 0 {
		return 0, false
	}
	return e.q.items[0].at, true
}

// AdvanceTo moves the clock to t without executing anything. It panics
// if that would step over a queued event or run time backwards — the
// caller (the hybrid co-simulation pump) must drain events up to t
// first, so a violation is a scheduling bug, not a recoverable state.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic("des: AdvanceTo into the past")
	}
	if e.q.len() > 0 && e.q.items[0].at < t {
		panic("des: AdvanceTo over a pending event")
	}
	e.now = t
}

// NotePerturb records a mid-run resource-rate change; Perturbs returns
// the running count. See Engine.perturbs.
func (e *Engine) NotePerturb()     { e.perturbs++ }
func (e *Engine) Perturbs() uint64 { return e.perturbs }

// At schedules fn to run at absolute time t. Scheduling in the past is
// clamped to the current time; a clamped (or exactly-now) event runs
// "now" in simulated time, but only after every event already queued for
// the current instant (FIFO tie-breaking by scheduling order).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.q.push(e.key(t, slot{fn: fn}))
}

// AtCtx schedules fn(arg) to run at absolute time t, with the same
// clamping and FIFO tie-breaking as At. It is the zero-allocation form
// for hot paths: when fn is a static function and arg is a pointer, the
// call allocates nothing, whereas At with a capturing closure allocates
// the closure at the call site. At and AtCtx events share one sequence
// and interleave accordingly.
func (e *Engine) AtCtx(t Time, fn func(any), arg any) {
	if t < e.now {
		t = e.now
	}
	e.q.push(e.key(t, slot{ctxFn: fn, arg: arg}))
}

// LaneAt is At through lane l: fn runs at t (clamped to now) in the same
// (at, seq) order At would give it. When t is not earlier than the
// latest event l holds, the event waits in l behind its head instead of
// entering the heap; otherwise it goes to the heap directly.
func (e *Engine) LaneAt(l *Lane, t Time, fn func()) {
	e.laneAt(l, t, slot{fn: fn})
}

// LaneAtCtx is AtCtx through lane l (see LaneAt).
func (e *Engine) LaneAtCtx(l *Lane, t Time, fn func(any), arg any) {
	e.laneAt(l, t, slot{ctxFn: fn, arg: arg})
}

func (e *Engine) laneAt(l *Lane, t Time, s slot) {
	if t < e.now {
		t = e.now
	}
	switch {
	case !l.live:
		// Empty lane: the event becomes its head, in the heap.
		l.live, l.tail = true, t
		s.lane = l
		e.q.push(e.key(t, s))
	case t >= l.tail:
		l.tail = t
		e.laned++
		s.lane = l
		k := e.key(t, s)
		if l.n == len(l.buf) {
			e.growLane(l)
		}
		l.buf[(l.head+l.n)&(len(l.buf)-1)] = k
		l.n++
	default:
		// Earlier than the lane's tail: an ordinary heap event. The heap
		// merges it with the lane's head in exact (at, seq) order.
		e.q.push(e.key(t, s))
	}
}

// growLane gives l room for one more key: a pooled buffer when it has
// none, else one twice the size with the backlog copied in order.
func (e *Engine) growLane(l *Lane) {
	if len(l.buf) == 0 {
		if n := len(e.lanePool); n > 0 {
			l.buf = e.lanePool[n-1]
			e.lanePool[n-1] = nil
			e.lanePool = e.lanePool[:n-1]
		} else {
			l.buf = make([]qkey, 8)
		}
		l.head = 0
		return
	}
	buf := make([]qkey, 2*len(l.buf))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

// key assigns the next sequence number and a slot for s.
func (e *Engine) key(t Time, s slot) qkey {
	if e.seq == maxSeq {
		panic("des: event sequence exhausted")
	}
	e.seq++
	var i uint32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[i] = s
	} else {
		if len(e.slots) > slotMask {
			panic("des: too many pending events")
		}
		i = uint32(len(e.slots))
		e.slots = append(e.slots, s)
	}
	return qkey{at: t, ss: e.seq<<slotBits | uint64(i)}
}

// After schedules fn to run d after the current time. Negative delays are
// clamped to zero (the event runs at the current instant, after
// already-queued events for that instant).
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// AfterCtx schedules fn(arg) to run d after the current time; it is to
// AtCtx what After is to At.
func (e *Engine) AfterCtx(d Time, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.AtCtx(e.now+d, fn, arg)
}

// Step executes the single next event and reports whether one was
// executed. The clock advances to the event's timestamp before its
// callback runs. Work the callback schedules is only queued — even work
// scheduled at the current instant runs on a later Step, after any other
// events already queued for that instant.
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	k := e.q.items[0]
	i := k.slot()
	s := e.slots[i]
	// Vacate the slot so the table does not pin the callback or its
	// argument past execution.
	e.slots[i] = slot{}
	e.free = append(e.free, i)
	if l := s.lane; l != nil && l.n > 0 {
		// The lane's next event replaces the head at the top of the
		// heap, in one sift.
		next := l.popFront()
		e.laned--
		e.q.siftDown(next)
		if l.n == 0 {
			e.lanePool = append(e.lanePool, l.buf)
			l.buf = nil
		}
	} else {
		if l != nil {
			l.live = false
		}
		e.q.pop()
	}
	e.now = k.at
	e.nSteps++
	if s.fn != nil {
		s.fn()
	} else {
		s.ctxFn(s.arg)
	}
	return true
}

// Run executes events until the queue is empty and returns the number of
// events processed during this call.
func (e *Engine) Run() uint64 {
	start := e.nSteps
	for e.Step() {
	}
	return e.nSteps - start
}

// RunUntil executes events with timestamps <= deadline and then advances
// the clock to deadline (if the clock has not already passed it). Events
// that executed callbacks schedule at or before the deadline are also
// executed during the same call.
func (e *Engine) RunUntil(deadline Time) {
	for e.q.len() > 0 && e.q.items[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
