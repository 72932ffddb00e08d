package des

import "acesim/internal/trace"

// event is one scheduled callback. Exactly one of fn / ctxFn is set: fn
// for At/After, ctxFn (+arg) for AtCtx/AfterCtx.
type event struct {
	fn    func()
	ctxFn func(any)
	arg   any
}

// bucket holds the events of one pending instant in scheduling order;
// head indexes the next one to run. A retired bucket keeps its backing
// array, so reusing it schedules without allocating.
type bucket struct {
	evs  []event
	head int
}

// push appends ev. When the array is full and more than half of it has
// already run, the live tail moves to the front instead of growing, so
// an instant that keeps receiving work while it drains holds only its
// pending events.
func (b *bucket) push(ev event) {
	if len(b.evs) == cap(b.evs) && b.head > len(b.evs)/2 {
		n := copy(b.evs, b.evs[b.head:])
		clear(b.evs[n:])
		b.evs, b.head = b.evs[:n], 0
	}
	b.evs = append(b.evs, ev)
}

// instant is one time-heap entry: a pending instant and the index of the
// bucket that holds its events. It carries no pointers, so sifting it
// needs no GC write barriers and the heap is never scanned.
type instant struct {
	at Time
	b  int
}

// timeHeap is a 4-ary min-heap of distinct pending instants. The 4-ary
// layout halves tree depth against a binary heap (fewer cache lines per
// sift), and times are unique, so the order is plain at order.
type timeHeap []instant

func (h *timeHeap) push(x instant) {
	i := len(*h)
	*h = append(*h, x)
	items := *h
	// Sift up: move the hole toward the root until x fits.
	for i > 0 {
		p := (i - 1) / 4
		if x.at >= items[p].at {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = x
}

// pop removes the earliest instant. Caller must ensure h is non-empty.
func (h *timeHeap) pop() {
	n := len(*h) - 1
	x := (*h)[n]
	*h = (*h)[:n]
	items := *h
	if n == 0 {
		return
	}
	// Sift down: re-insert the last entry from the root, moving the hole
	// toward the leaves past any earlier child.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if items[c].at < items[min].at {
				min = c
			}
		}
		if items[min].at >= x.at {
			break
		}
		items[i] = items[min]
		i = min
	}
	items[i] = x
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use at time 0.
//
// Determinism guarantee: execution order is the total order (at, seq) —
// earlier timestamps first, FIFO among events scheduled for the same
// instant — so a simulation's outcome is a pure function of its inputs,
// independent of platform, map iteration order or wall-clock effects.
//
// The queue is a calendar of pending instants: a heap of distinct times,
// each owning a FIFO bucket of that instant's callbacks. Scheduling order
// is sequence order, so appending to the instant's FIFO yields exactly
// (at, seq) order with no per-event sequence number, and heap work is
// paid once per instant, not once per event.
type Engine struct {
	now    Time
	nSteps uint64
	// times holds each pending instant once; buckets[b] holds the events
	// of the instant whose entry names b, and free lists retired buckets
	// for reuse.
	times   timeHeap
	buckets []bucket
	free    []int
	// index maps each pending instant to its bucket. last/lastB cache
	// the instant scheduled most recently (valid while lastOK), which
	// most pushes target.
	index   map[Time]int
	last    Time
	lastB   int
	lastOK  bool
	pending int
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
func (e *Engine) Pending() int { return e.pending }

// NextAt returns the timestamp of the next queued event, or false when
// the queue is empty. It lets a co-simulation driver lazily advance a
// secondary engine exactly as far as its event horizon requires.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.times) == 0 {
		return 0, false
	}
	return e.times[0].at, true
}

// AdvanceTo moves the clock to t without executing anything. It panics
// if that would step over a queued event or run time backwards — the
// caller (the hybrid co-simulation pump) must drain events up to t
// first, so a violation is a scheduling bug, not a recoverable state.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic("des: AdvanceTo into the past")
	}
	if len(e.times) > 0 && e.times[0].at < t {
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
	e.schedule(t, event{fn: fn})
}

// AtCtx schedules fn(arg) to run at absolute time t, with the same
// clamping and FIFO tie-breaking as At. It is the zero-allocation form
// for hot paths: when fn is a static function and arg is a pointer, the
// call allocates nothing, whereas At with a capturing closure allocates
// the closure at the call site. At and AtCtx events share one sequence
// and interleave accordingly.
func (e *Engine) AtCtx(t Time, fn func(any), arg any) {
	e.schedule(t, event{ctxFn: fn, arg: arg})
}

// schedule appends ev to the FIFO of instant t (clamped to now).
func (e *Engine) schedule(t Time, ev event) {
	if t < e.now {
		t = e.now
	}
	if !e.lastOK || t != e.last {
		e.last, e.lastB, e.lastOK = t, e.open(t), true
	}
	e.buckets[e.lastB].push(ev)
	e.pending++
}

// open returns the bucket of instant t, making t pending if it is not.
func (e *Engine) open(t Time) int {
	if b, ok := e.index[t]; ok {
		return b
	}
	if e.index == nil {
		e.index = make(map[Time]int)
	}
	var b int
	if n := len(e.free); n > 0 {
		b = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		b = len(e.buckets)
		e.buckets = append(e.buckets, bucket{})
	}
	e.index[t] = b
	e.times.push(instant{at: t, b: b})
	return b
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

// Call adapts a plain func() to the callback-with-context form:
// Call(fn) runs fn. The func() forms of the context APIs built on the
// engine (gates, network sends) pass their callback through it.
func Call(fn any) { fn.(func())() }

// Step executes the single next event and reports whether one was
// executed. The clock advances to the event's timestamp before its
// callback runs. Work the callback schedules is only queued — even work
// scheduled at the current instant runs on a later Step, after any other
// events already queued for that instant.
func (e *Engine) Step() bool {
	if len(e.times) == 0 {
		return false
	}
	top := e.times[0]
	bk := &e.buckets[top.b]
	ev := bk.evs[bk.head]
	bk.head++
	if bk.head == len(bk.evs) {
		// The instant is drained: retire it before the callback runs, so
		// work the callback schedules at now reopens it behind nothing.
		// Clearing the array drops its callbacks and arguments.
		clear(bk.evs)
		bk.evs, bk.head = bk.evs[:0], 0
		e.times.pop()
		delete(e.index, top.at)
		e.free = append(e.free, top.b)
		if e.last == top.at {
			e.lastOK = false
		}
	}
	e.pending--
	e.now = top.at
	e.nSteps++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.ctxFn(ev.arg)
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
	for len(e.times) > 0 && e.times[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
