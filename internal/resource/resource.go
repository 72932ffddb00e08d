// Package resource models contended hardware resources for the simulator:
//
//   - Server: a FIFO rate server (a link, a memory-bandwidth partition, an
//     ALU, a DMA bus). A request of B bytes occupies the server for
//     B/rate and completes in arrival order.
//   - ByteGate: a byte-capacity admission gate (SRAM partition space).
//   - SlotGate: a unit-capacity semaphore (FSM slots, in-flight windows).
//
// All primitives are event-driven and deterministic: completion callbacks
// run on the owning des.Engine in its (time, scheduling-order) event
// order, and every queue here is FIFO — no primitive introduces ordering
// that depends on anything but the sequence of calls made to it. Rates
// are GB/s (10^9 bytes per second) throughout; times and durations are
// des.Time picoseconds.
package resource

import (
	"fmt"

	"acesim/internal/des"
	"acesim/internal/stats"
)

// Observer receives one busy interval [start, end) of a simulated
// resource and the bytes it moved (0 for pure occupancy). Fig 10/9b
// utilization buckets, tracer spans and power windows are all
// observers; a component reports every interval it serves, zero-length
// ones included, in the order it books them.
type Observer func(start, end des.Time, bytes int64)

// Observers is a component's busy-interval observer list. The empty
// list costs one length test per interval and allocates nothing.
type Observers []Observer

// Observe appends o to the list.
func (l *Observers) Observe(o Observer) { *l = append(*l, o) }

// Report hands one interval to every observer in attachment order.
func (l Observers) Report(start, end des.Time, bytes int64) {
	for _, o := range l {
		o(start, end, bytes)
	}
}

// Server is a FIFO rate server. Requests are served in order at Rate GB/s;
// a request of n bytes holds the server for des.ByteDur(n, rate).
// A rate <= 0 means "infinitely fast": requests complete after zero time
// (but still in FIFO order on the event queue).
type Server struct {
	eng  *des.Engine
	name string
	rate float64 // GB/s; <= 0 means infinite

	freeAt des.Time
	busy   des.Time
	Meter  stats.Meter
	// Observers see every request's service interval.
	Observers
}

// NewServer returns a server with the given rate in GB/s.
func NewServer(eng *des.Engine, name string, rateGBps float64) *Server {
	return &Server{eng: eng, name: name, rate: rateGBps}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Rate returns the configured rate in GB/s (0 meaning infinite).
func (s *Server) Rate() float64 { return s.rate }

// SetRate changes the service rate. In-flight requests keep their original
// completion times; only subsequently issued requests see the new rate.
// This models coarse-grained dynamic contention (Fig 4 microbenchmark).
// Every call is recorded as a perturbation on the owning engine so the
// hybrid fast path can refuse analytic shortcuts once rates have been
// rewired under a running simulation.
func (s *Server) SetRate(rateGBps float64) {
	s.rate = rateGBps
	s.eng.NotePerturb()
}

// Absorb folds another server's lifetime accounting (busy time and one
// byte-meter entry for its total) into this one. The hybrid engine uses
// it to merge a shadow co-simulation's statistics back into the primary
// system. Service state (freeAt) is not touched.
func (s *Server) Absorb(o *Server) {
	s.busy += o.busy
	if t := o.Meter.Total(); t != 0 {
		s.Meter.Add(t)
	}
}

// BusyTime returns the cumulative time (picoseconds) the server has been
// occupied serving requests.
func (s *Server) BusyTime() des.Time { return s.busy }

// FreeAt returns the earliest simulated time a new request could start
// service (now, if the server is idle).
func (s *Server) FreeAt() des.Time {
	if s.freeAt < s.eng.Now() {
		return s.eng.Now()
	}
	return s.freeAt
}

// reserve books n bytes of service time (FIFO, starting no earlier than
// now) and returns the completion instant. It updates the busy meter and
// reports the interval to the observers; callers schedule their own
// completion callback at (or after) the returned time.
func (s *Server) reserve(n int64) des.Time {
	now := s.eng.Now()
	start := s.freeAt
	if start < now {
		start = now
	}
	d := des.ByteDur(n, s.rate)
	end := start + d
	s.freeAt = end
	s.busy += d
	if n > 0 {
		s.Meter.Add(n)
	}
	s.Report(start, end, n)
	return end
}

// Request enqueues a transfer of n bytes and calls done when it completes.
// A nil done is allowed (pure occupancy). Zero or negative sizes complete
// immediately (still via the event queue, preserving ordering).
func (s *Server) Request(n int64, done func()) {
	end := s.reserve(n)
	if done != nil {
		s.eng.At(end, done)
	}
}

// RequestAfter is Request with done deferred an extra (non-negative)
// duration past service completion. It models "serialize, then
// propagate" costs — e.g. a link's wire latency after its bandwidth
// serialization — without the intermediate closure a Request-then-After
// chain would allocate per transfer. The extra delay does not occupy the
// server: the next request may start service as soon as this one's bytes
// are through.
func (s *Server) RequestAfter(n int64, extra des.Time, done func()) {
	if extra < 0 {
		extra = 0
	}
	end := s.reserve(n)
	if done != nil {
		s.eng.At(end+extra, done)
	}
}

// RequestAfterCtx is RequestAfter in the engine's zero-allocation
// callback-with-context form (des.Engine.AtCtx): fn(arg) runs extra after
// service completion. With a static fn and pointer arg the call allocates
// nothing.
func (s *Server) RequestAfterCtx(n int64, extra des.Time, fn func(any), arg any) {
	if extra < 0 {
		extra = 0
	}
	end := s.reserve(n)
	s.eng.AtCtx(end+extra, fn, arg)
}

// String describes the server state for debugging.
func (s *Server) String() string {
	return fmt.Sprintf("server(%s %vGB/s busy=%v)", s.name, s.rate, s.busy)
}

// call is a callback in the engine's callback-with-context form: fn(arg).
type call struct {
	fn  func(any)
	arg any
}

// byteWaiter is one queued ByteGate acquisition.
type byteWaiter struct {
	n int64
	call
}

// FIFO is a queue reused through a head index: popped slots are zeroed
// so popped values (granted callbacks, admitted chunks) are not pinned,
// and the backing array is reused (rewound when the queue empties,
// compacted when it fills) instead of leaking its dead prefix. The zero
// value is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Reserve makes buf's array the backing store of an empty queue: it
// holds cap(buf) values before the queue has to grow. Several queues
// can share one allocation by reserving disjoint, capacity-limited
// slices of it.
func (q *FIFO[T]) Reserve(buf []T) {
	if q.Len() > 0 {
		panic("resource: Reserve on a non-empty FIFO")
	}
	q.items, q.head = buf[:0], 0
}

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	q.compact()
	q.items = append(q.items, v)
}

// Insert places v directly behind the last queued value that orders
// ahead of it (ahead(queued, v) true), scanning from the tail; v goes to
// the front when none does.
func (q *FIFO[T]) Insert(v T, ahead func(queued, v T) bool) {
	q.compact()
	i := len(q.items)
	for i > q.head && !ahead(q.items[i-1], v) {
		i--
	}
	var zero T
	q.items = append(q.items, zero)
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = v
}

// compact moves the live values to the front of a full backing array
// that has a dead prefix, so the next append reuses it.
func (q *FIFO[T]) compact() {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
}

// Front returns the oldest value. Caller must ensure Len() > 0.
func (q *FIFO[T]) Front() T { return q.items[q.head] }

// Pop removes and returns the oldest value. Caller must ensure Len() > 0.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// ByteGate grants byte-sized reservations against a fixed capacity, FIFO.
// The head waiter blocks all later waiters (no bypass), which keeps
// admission fair and the simulation deterministic.
type ByteGate struct {
	name     string
	capacity int64
	used     int64
	q        FIFO[byteWaiter]
	maxUsed  int64
}

// NewByteGate returns a gate with the given byte capacity.
// capacity <= 0 means unlimited.
func NewByteGate(name string, capacity int64) *ByteGate {
	return &ByteGate{name: name, capacity: capacity}
}

// Capacity returns the configured capacity in bytes (0 = unlimited).
func (g *ByteGate) Capacity() int64 { return g.capacity }

// Used returns the currently reserved bytes.
func (g *ByteGate) Used() int64 { return g.used }

// MaxUsed returns the high-water mark of reserved bytes over the gate's
// lifetime.
func (g *ByteGate) MaxUsed() int64 { return g.maxUsed }

// Waiting returns the number of queued (not yet granted) acquisitions.
func (g *ByteGate) Waiting() int { return g.q.Len() }

// Acquire reserves n bytes, calling fn once the reservation is granted.
// Requests larger than the whole capacity are granted when the gate is
// completely empty (they would otherwise deadlock).
func (g *ByteGate) Acquire(n int64, fn func()) { g.AcquireCtx(n, des.Call, fn) }

// AcquireCtx is Acquire in the engine's callback-with-context form:
// fn(arg) runs once the reservation is granted. With a static fn and a
// pointer arg the call allocates nothing, granted at once or queued on a
// queue whose array has room.
func (g *ByteGate) AcquireCtx(n int64, fn func(any), arg any) {
	if n < 0 {
		n = 0
	}
	if g.q.Len() == 0 && g.fits(n) {
		g.grant(n, call{fn, arg})
		return
	}
	g.q.Push(byteWaiter{n, call{fn, arg}})
	g.drain()
}

// Release returns n bytes to the gate and grants queued waiters in order.
func (g *ByteGate) Release(n int64) {
	g.used -= n
	if g.used < 0 {
		panic(fmt.Sprintf("bytegate %s: released more than acquired", g.name))
	}
	g.drain()
}

func (g *ByteGate) fits(n int64) bool {
	if g.capacity <= 0 {
		return true
	}
	if n >= g.capacity {
		// Oversized request: admit only into an empty gate.
		return g.used == 0
	}
	return g.used+n <= g.capacity
}

func (g *ByteGate) grant(n int64, c call) {
	g.used += n
	if g.used > g.maxUsed {
		g.maxUsed = g.used
	}
	c.fn(c.arg)
}

func (g *ByteGate) drain() {
	for g.q.Len() > 0 && g.fits(g.q.Front().n) {
		w := g.q.Pop()
		g.grant(w.n, w.call)
	}
}

// SlotGate is a counting semaphore with FIFO waiters.
type SlotGate struct {
	name    string
	cap     int
	used    int
	q       FIFO[call]
	maxUsed int
}

// NewSlotGate returns a gate with the given slot count. cap <= 0 means
// unlimited.
func NewSlotGate(name string, capacity int) *SlotGate {
	return &SlotGate{name: name, cap: capacity}
}

// Capacity returns the slot count (0 = unlimited).
func (g *SlotGate) Capacity() int { return g.cap }

// Used returns the number of slots currently held.
func (g *SlotGate) Used() int { return g.used }

// MaxUsed returns the high-water mark of held slots.
func (g *SlotGate) MaxUsed() int { return g.maxUsed }

// Waiting returns the number of queued acquisitions.
func (g *SlotGate) Waiting() int { return g.q.Len() }

// Acquire takes one slot, calling fn when granted.
func (g *SlotGate) Acquire(fn func()) { g.AcquireCtx(des.Call, fn) }

// AcquireCtx is Acquire in the engine's callback-with-context form:
// fn(arg) runs when the slot is granted. With a static fn and a pointer
// arg the call allocates nothing, granted at once or queued on a queue
// whose array has room.
func (g *SlotGate) AcquireCtx(fn func(any), arg any) {
	if g.q.Len() == 0 && g.free() {
		g.grant(call{fn, arg})
		return
	}
	g.q.Push(call{fn, arg})
	g.drain()
}

// Release returns one slot.
func (g *SlotGate) Release() {
	g.used--
	if g.used < 0 {
		panic(fmt.Sprintf("slotgate %s: released more than acquired", g.name))
	}
	g.drain()
}

func (g *SlotGate) free() bool { return g.cap <= 0 || g.used < g.cap }

func (g *SlotGate) grant(c call) {
	g.used++
	if g.used > g.maxUsed {
		g.maxUsed = g.used
	}
	c.fn(c.arg)
}

func (g *SlotGate) drain() {
	for g.q.Len() > 0 && g.free() {
		g.grant(g.q.Pop())
	}
}
