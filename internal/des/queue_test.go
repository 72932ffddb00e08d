package des

import (
	"container/heap"
	"math/rand"
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

// TestQueueKeySize pins the heap entry at 16 pointer-free bytes: the
// sift loops move keys, and a wider or pointer-bearing key brings back
// the copying and write-barrier cost the slot table removed.
func TestQueueKeySize(t *testing.T) {
	if n := unsafe.Sizeof(qkey{}); n != 16 {
		t.Fatalf("qkey is %d bytes, want 16", n)
	}
}

// TestQueueMatchesReferenceHeap drives the engine with 20k random events
// scheduled through At, AtCtx and LaneAt/LaneAtCtx on 8 lanes (in-order
// lane pushes that wait behind the lane head, and out-of-order ones that
// take the heap directly), interleaved with Steps. Timestamps collide
// heavily so the seq tie-break is exercised. After every operation the
// engine must agree with a container/heap reference on the executed
// event's (at, seq), Pending() and NextAt().
func TestQueueMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	var ref refHeap
	var lanes [8]Lane
	var seq uint64
	var ran refEvent
	evs := make([]refEvent, 0, 20000)
	record := func(a any) { ran = *a.(*refEvent) }
	const n = 20000
	pushed, popped, laned, fallback := 0, 0, 0, 0
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
	for popped < n {
		if pushed < n && (ref.Len() == 0 || rng.Intn(3) != 0) {
			now := e.Now()
			at := now + Time(rng.Intn(64)) - 4 // a few land in the past
			kind := rng.Intn(4)
			l := &lanes[rng.Intn(len(lanes))]
			if kind >= 2 && l.live && rng.Intn(4) != 0 {
				// Mostly in lane order: at or after the lane's tail.
				at = l.tail + Time(rng.Intn(8))
			}
			clamped := max(at, now)
			seq++
			evs = append(evs, refEvent{at: clamped, seq: seq})
			ev := &evs[len(evs)-1]
			if kind >= 2 {
				if l.live && clamped < l.tail {
					fallback++
				} else {
					laned++
				}
			}
			switch kind {
			case 0:
				e.At(at, func() { ran = *ev })
			case 1:
				e.AtCtx(at, record, ev)
			case 2:
				e.LaneAt(l, at, func() { ran = *ev })
			case 3:
				e.LaneAtCtx(l, at, record, ev)
			}
			heap.Push(&ref, *ev)
			pushed++
			check("push")
			continue
		}
		if !e.Step() {
			t.Fatalf("pop %d: engine empty, reference holds %d", popped, ref.Len())
		}
		want := heap.Pop(&ref).(refEvent)
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
	if laned == 0 || fallback == 0 {
		t.Fatalf("lane paths not both exercised: %d lane appends, %d fallbacks", laned, fallback)
	}
	for i := range lanes {
		if l := &lanes[i]; l.live || l.n != 0 || l.buf != nil {
			t.Fatalf("lane %d not idle after drain: live=%v n=%d buf=%d", i, l.live, l.n, len(l.buf))
		}
	}
}

// TestQueueSortedDrain pushes a large random batch and verifies a full
// drain comes out in exact (at, seq) order.
func TestQueueSortedDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	for i := 0; i < 5000; i++ {
		q.push(qkey{at: Time(rng.Intn(100)), ss: uint64(i+1) << slotBits})
	}
	prev := q.pop()
	for q.len() > 0 {
		cur := q.pop()
		if cur.before(prev) {
			t.Fatalf("out of order: (at=%d ss=%d) after (at=%d ss=%d)",
				cur.at, cur.ss, prev.at, prev.ss)
		}
		prev = cur
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
// per event once the queue, slot table and lane pool are warm: At with a
// pre-existing callback, AtCtx with a pointer argument, and both lane
// forms are free.
func TestEngineZeroAllocScheduling(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	ctxFn := func(a any) { *a.(*int)++ }
	var lanes [2]Lane
	batch := func() {
		for i := 0; i < 64; i++ {
			e.At(Time(i), fn)
			e.AtCtx(Time(i), ctxFn, &n)
			e.LaneAt(&lanes[0], Time(i), fn)
			e.LaneAtCtx(&lanes[1], Time(i), ctxFn, &n)
		}
		e.Run()
	}
	// Warm the queue's backing slice, the slot table and the lane pool.
	batch()
	avg := testing.AllocsPerRun(100, batch)
	if avg != 0 {
		t.Fatalf("engine allocates %.2f allocs per warm schedule+run batch, want 0", avg)
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
}
