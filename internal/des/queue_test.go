package des

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// refEvent / refHeap is a container/heap reference implementation with the
// same (at, seq) ordering contract as the engine's queue.
type refEvent struct {
	at  Time
	seq uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestTimeHeapEntrySize pins the time-heap entry at 16 pointer-free
// bytes: the sift loops move entries, and a wider or pointer-bearing
// entry brings back copying and GC write-barrier cost.
func TestTimeHeapEntrySize(t *testing.T) {
	typ := reflect.TypeOf(instant{})
	if n := unsafe.Sizeof(instant{}); n != 16 {
		t.Fatalf("instant is %d bytes, want 16", n)
	}
	for i := 0; i < typ.NumField(); i++ {
		if k := typ.Field(i).Type.Kind(); k != reflect.Int64 && k != reflect.Int {
			t.Fatalf("instant field %s is a %v, want a plain integer", typ.Field(i).Name, k)
		}
	}
}

// TestQueueMatchesReferenceHeap drives the engine with 20k events
// scheduled through At, AtCtx, After and AfterCtx, from outside and from
// inside running callbacks, interleaved with Steps. Timestamps collide
// heavily so FIFO order within an instant is exercised; some land in the
// past and are clamped to now; callbacks schedule into the instant being
// drained and, after its last event has run, into that same instant
// again (retired and reopened). After every operation the engine must
// agree with a container/heap reference on the executed event's
// (at, seq), Pending() and NextAt().
func TestQueueMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	var ref refHeap
	var seq uint64
	var ran refEvent
	const n = 20000
	pushed, popped, reopened := 0, 0, 0
	check := func(op string) {
		t.Helper()
		if p := e.Pending(); p != ref.Len() {
			t.Fatalf("%s: Pending() = %d, reference %d", op, p, ref.Len())
		}
		at, ok := e.NextAt()
		if ok != (ref.Len() > 0) || (ok && at != ref[0].at) {
			t.Fatalf("%s: NextAt() = (%d, %v), reference head %v", op, at, ok, ref)
		}
	}
	var push func(op string, at Time)
	// randomAt picks a time that collides heavily with pending work:
	// the instant being drained, the past (clamped to now), or one of a
	// few near-future instants.
	randomAt := func() Time {
		now := e.Now()
		switch rng.Intn(4) {
		case 0:
			return now
		case 1:
			return now - Time(rng.Intn(8)) - 1
		default:
			return now + Time(rng.Intn(16))
		}
	}
	// run is every event's callback: it records what ran and sometimes
	// schedules more work from inside the callback. When it was the
	// last event of its instant, that instant has been retired, and
	// half of those pushes target it again.
	run := func(ev *refEvent) {
		ran = *ev
		if pushed >= n || rng.Intn(4) != 0 {
			return
		}
		if next, ok := e.NextAt(); (!ok || next != e.Now()) && rng.Intn(2) == 0 {
			reopened++
			push("push reopening a drained instant", e.Now())
			return
		}
		push("push from callback", randomAt())
	}
	record := func(a any) { run(a.(*refEvent)) }
	push = func(op string, at Time) {
		now := e.Now()
		seq++
		ev := &refEvent{at: max(at, now), seq: seq}
		switch rng.Intn(4) {
		case 0:
			e.At(at, func() { run(ev) })
		case 1:
			e.AtCtx(at, record, ev)
		case 2:
			e.After(at-now, func() { run(ev) })
		case 3:
			e.AfterCtx(at-now, record, ev)
		}
		heap.Push(&ref, *ev)
		pushed++
		check(op)
	}
	for popped < n {
		if pushed < n && (ref.Len() == 0 || rng.Intn(3) != 0) {
			push("push", randomAt())
			continue
		}
		want := heap.Pop(&ref).(refEvent)
		if !e.Step() {
			t.Fatalf("pop %d: engine empty, reference holds %d", popped, ref.Len()+1)
		}
		if ran != want || e.Now() != want.at {
			t.Fatalf("pop %d: engine ran (at=%d seq=%d) at now=%d, reference (at=%d seq=%d)",
				popped, ran.at, ran.seq, e.Now(), want.at, want.seq)
		}
		popped++
		check("pop")
	}
	if e.Step() {
		t.Fatal("engine ran an event the reference does not hold")
	}
	if reopened == 0 {
		t.Fatal("no callback scheduled into a drained, retired instant")
	}
}

// TestQueueSortedDrain schedules a large random batch through the public
// API and verifies a full drain runs it in exact (at, seq) order.
func TestQueueSortedDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	var got []refEvent
	record := func(a any) {
		ev := *a.(*refEvent)
		if e.Now() != ev.at {
			t.Fatalf("event for %d ran at %d", ev.at, e.Now())
		}
		got = append(got, ev)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		at := Time(rng.Intn(100))
		e.AtCtx(at, record, &refEvent{at: at, seq: uint64(i)})
	}
	if ran := e.Run(); ran != n {
		t.Fatalf("ran %d events, want %d", ran, n)
	}
	for i := 1; i < len(got); i++ {
		if (refHeap{got[i], got[i-1]}).Less(0, 1) {
			t.Fatalf("out of order: (at=%d seq=%d) after (at=%d seq=%d)",
				got[i].at, got[i].seq, got[i-1].at, got[i-1].seq)
		}
	}
}

// TestEngineAtCtxInterleavesWithAt verifies At and AtCtx share one FIFO
// sequence: same-instant events run in scheduling order regardless of
// which form scheduled them, and the context argument arrives intact.
func TestEngineAtCtxInterleavesWithAt(t *testing.T) {
	e := NewEngine()
	var got []int
	appendCtx := func(a any) { got = append(got, *a.(*int)) }
	one, three := 1, 3
	e.AtCtx(10, appendCtx, &one)
	e.At(10, func() { got = append(got, 2) })
	e.AtCtx(10, appendCtx, &three)
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("mixed At/AtCtx order = %v, want [1 2 3]", got)
	}
}

// TestEngineAfterCtx verifies delay clamping and timing for the context
// form.
func TestEngineAfterCtx(t *testing.T) {
	e := NewEngine()
	var at []Time
	record := func(a any) { at = append(at, a.(*Engine).Now()) }
	e.At(5, func() {
		e.AfterCtx(10, record, e)
		e.AfterCtx(-3, record, e) // clamped: runs at the current instant
	})
	e.Run()
	if len(at) != 2 || at[0] != 5 || at[1] != 15 {
		t.Fatalf("AfterCtx times = %v, want [5 15]", at)
	}
}

// TestEngineSameInstantScheduling pins the documented Step/Pending
// semantics when a callback schedules at the current instant: the new
// event is queued (Pending rises), never run inline, and runs after every
// event already queued for that instant.
func TestEngineSameInstantScheduling(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, func() {
		e.At(10, func() { got = append(got, "rescheduled") })
		e.After(0, func() { got = append(got, "after0") })
		if p := e.Pending(); p != 3 {
			t.Fatalf("Pending inside callback = %d, want 3 (sibling + 2 new)", p)
		}
	})
	e.At(10, func() { got = append(got, "sibling") })

	if !e.Step() {
		t.Fatal("Step returned false with queued events")
	}
	// The first callback queued two same-instant events; none ran inline.
	if len(got) != 0 {
		t.Fatalf("same-instant events ran inline: %v", got)
	}
	if p := e.Pending(); p != 3 {
		t.Fatalf("Pending after first Step = %d, want 3", p)
	}
	e.Run()
	want := []string{"sibling", "rescheduled", "after0"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v (already-queued siblings run before newly scheduled same-instant events)", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10", e.Now())
	}
}

// TestEngineZeroAllocScheduling asserts the engine core allocates nothing
// per event once its time heap, buckets and instant index are warm, on
// three traffic shapes: At with a pre-existing callback and AtCtx with a
// pointer argument over a few shared instants; a chain in which every
// event opens and retires its own instant (churn on the index); and one
// instant holding thousands of events (the bucket's array is reused).
func TestEngineZeroAllocScheduling(t *testing.T) {
	n := 0
	fn := func() { n++ }
	ctxFn := func(a any) { *a.(*int)++ }
	// hop re-schedules itself one picosecond later until its counter
	// runs out, so every hop opens and retires its own instant.
	e := NewEngine()
	var hop func(any)
	hop = func(a any) {
		if k := a.(*int); *k > 0 {
			*k--
			e.AfterCtx(1, hop, k)
		}
	}
	hops := 0
	cases := []struct {
		name  string
		batch func()
	}{
		{"shared-instants", func() {
			for i := 0; i < 64; i++ {
				e.At(e.Now()+Time(i%8), fn)
				e.AtCtx(e.Now()+Time(i%5), ctxFn, &n)
			}
			e.Run()
		}},
		{"instant-per-event", func() {
			for i := 0; i < 4; i++ {
				e.AtCtx(e.Now()+Time(1+i*1000), ctxFn, &n) // far instants stay pending
			}
			hops = 256
			e.AfterCtx(1, hop, &hops)
			e.Run()
		}},
		{"crowded-instant", func() {
			at := e.Now() + 1
			for i := 0; i < 4096; i++ {
				e.AtCtx(at, ctxFn, &n)
			}
			e.Run()
		}},
	}
	for _, tc := range cases {
		// Warm the time heap, the buckets and the instant index.
		tc.batch()
		if avg := testing.AllocsPerRun(100, tc.batch); avg != 0 {
			t.Errorf("%s: engine allocates %.2f allocs per warm schedule+run batch, want 0", tc.name, avg)
		}
	}
}

// BenchmarkEngineSchedule measures raw schedule+execute throughput of the
// engine core (At with a shared callback; the simulator's floor cost per
// event).
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 128; j++ {
			e.At(e.Now()+Time(j%7), fn)
		}
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Steps()), "ns/event")
}

// BenchmarkEngineScheduleTied measures per-event cost on the traffic
// shape of a symmetric torus: 16 nodes run in lockstep, so every instant
// holds one event per node. Each step schedules the node's next step and
// a side event (a link completion, say) at two instants all 16 nodes
// share.
func BenchmarkEngineScheduleTied(b *testing.B) {
	e := NewEngine()
	const nodes, steps = 16, 64
	var left [nodes]int
	side := func(any) {}
	var step func(any)
	step = func(a any) {
		if k := a.(*int); *k > 0 {
			*k--
			e.AfterCtx(1, side, k)
			e.AfterCtx(Time(2+*k%3), step, k)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := range left {
			left[n] = steps
			e.AtCtx(e.Now()+1, step, &left[n])
		}
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Steps()), "ns/event")
}
