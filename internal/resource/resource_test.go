package resource

import (
	"fmt"
	"testing"
	"testing/quick"

	"acesim/internal/des"
	"acesim/internal/stats"
)

func TestServerRate(t *testing.T) {
	eng := des.NewEngine()
	s := NewServer(eng, "mem", 100) // 100 GB/s
	var done des.Time
	s.Request(1e9, func() { done = eng.Now() }) // 1 GB at 100 GB/s = 10 ms
	eng.Run()
	if done != 10*des.Millisecond {
		t.Fatalf("completion at %v, want 10ms", done)
	}
	if s.BusyTime() != 10*des.Millisecond {
		t.Fatalf("busy = %v", s.BusyTime())
	}
	if s.Meter.Total() != 1e9 {
		t.Fatalf("meter = %d", s.Meter.Total())
	}
}

func TestServerFIFO(t *testing.T) {
	eng := des.NewEngine()
	s := NewServer(eng, "link", 1) // 1 GB/s -> 1 byte = 1 ns
	var order []int
	s.Request(1000, func() { order = append(order, 1) })
	s.Request(10, func() { order = append(order, 2) })
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	// Second request queues behind the first: 1000ns + 10ns.
	if eng.Now() != 1010*des.Nanosecond {
		t.Fatalf("finished at %v", eng.Now())
	}
}

func TestServerIdleGap(t *testing.T) {
	eng := des.NewEngine()
	s := NewServer(eng, "link", 1)
	s.Request(100, nil)
	eng.Run() // idle until t=500
	eng.At(500*des.Nanosecond, func() { s.Request(100, func() {}) })
	eng.Run()
	// Busy time excludes the idle gap.
	if s.BusyTime() != 200*des.Nanosecond {
		t.Fatalf("busy = %v, want 200ns", s.BusyTime())
	}
	if eng.Now() != 600*des.Nanosecond {
		t.Fatalf("now = %v", eng.Now())
	}
}

func TestServerInfiniteRate(t *testing.T) {
	eng := des.NewEngine()
	s := NewServer(eng, "ideal", 0)
	fired := false
	s.Request(1e12, func() { fired = true })
	eng.Run()
	if !fired || eng.Now() != 0 {
		t.Fatalf("infinite server should complete instantly (now=%v)", eng.Now())
	}
}

func TestServerSetRate(t *testing.T) {
	eng := des.NewEngine()
	s := NewServer(eng, "mem", 100)
	var t1, t2 des.Time
	s.Request(1e9, func() { t1 = eng.Now() })
	s.SetRate(50) // later requests are slower
	s.Request(1e9, func() { t2 = eng.Now() })
	eng.Run()
	if t1 != 10*des.Millisecond {
		t.Fatalf("t1 = %v", t1)
	}
	if t2 != 30*des.Millisecond { // 10ms + 20ms
		t.Fatalf("t2 = %v", t2)
	}
}

func TestServerTrace(t *testing.T) {
	eng := des.NewEngine()
	s := NewServer(eng, "mem", 1)
	tr := stats.NewTrace(100 * des.Nanosecond)
	s.Observe(func(start, end des.Time, _ int64) { tr.AddBusy(start, end) })
	s.Request(100, nil) // busy [0,100ns)
	eng.Run()
	if got := tr.Utilization(0, 1); got != 1.0 {
		t.Fatalf("trace util = %v", got)
	}
}

// interval is one observed (start, end, bytes) report.
type interval struct {
	start, end des.Time
	bytes      int64
}

// TestServerObserverContract pins what every observer of a server
// sees: each request's service interval and bytes exactly once, in
// FIFO booking order, zero-byte requests and post-SetRate requests
// included — and the same sequence for every observer on the list.
func TestServerObserverContract(t *testing.T) {
	eng := des.NewEngine()
	s := NewServer(eng, "link", 1) // 1 byte = 1 ns
	var a, b []interval
	s.Observe(func(start, end des.Time, n int64) { a = append(a, interval{start, end, n}) })
	s.Observe(func(start, end des.Time, n int64) { b = append(b, interval{start, end, n}) })
	ns := des.Nanosecond
	s.Request(100, nil)        // [0, 100ns)
	s.Request(0, nil)          // zero-byte: [100ns, 100ns)
	s.RequestAfter(50, 7, nil) // [100ns, 150ns); the extra delay is not service
	eng.At(120*ns, func() {
		s.SetRate(2)                                // 1 byte = 0.5 ns from here on
		s.Request(100, nil)                         // queued behind the first three: [150ns, 200ns)
		s.RequestAfterCtx(40, 0, func(any) {}, nil) // [200ns, 220ns)
	})
	eng.Run()
	want := []interval{
		{0, 100 * ns, 100},
		{100 * ns, 100 * ns, 0},
		{100 * ns, 150 * ns, 50},
		{150 * ns, 200 * ns, 100},
		{200 * ns, 220 * ns, 40},
	}
	for name, got := range map[string][]interval{"first": a, "second": b} {
		if len(got) != len(want) {
			t.Fatalf("%s observer saw %d intervals, want %d: %v", name, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s observer interval %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	var busy des.Time
	for _, iv := range a {
		busy += iv.end - iv.start
	}
	if busy != s.BusyTime() {
		t.Fatalf("observed busy %v != lifetime busy %v", busy, s.BusyTime())
	}
}

// TestServerObserverPerBytePower checks the per-byte energy observer
// form (watts derived from the server's current rate at report time):
// a request served after SetRate moves the same energy per byte as one
// served before it, only over a shorter interval.
func TestServerObserverPerBytePower(t *testing.T) {
	eng := des.NewEngine()
	s := NewServer(eng, "hbm", 10)
	const pJPerByte = 30
	pt := stats.NewTrace(des.Second)
	var perReq []int64
	s.Observe(func(start, end des.Time, _ int64) {
		before := pt.At(0)
		pt.AddEnergy(start, end, pJPerByte*s.Rate()*1e-3)
		perReq = append(perReq, pt.At(0)-before)
	})
	s.Request(1000, nil)
	eng.At(des.Millisecond, func() {
		s.SetRate(40)
		s.Request(1000, nil)
	})
	eng.Run()
	want := int64(1000 * pJPerByte * 1000) // 1000 B x 30 pJ/B in fJ
	if len(perReq) != 2 || perReq[0] != want || perReq[1] != want {
		t.Fatalf("per-request energy = %v fJ, want [%d %d]", perReq, want, want)
	}
}

func TestServerConservation(t *testing.T) {
	// Busy time equals sum of per-request durations for any request mix.
	f := func(sizes []uint16) bool {
		eng := des.NewEngine()
		s := NewServer(eng, "x", 7)
		var want des.Time
		for _, sz := range sizes {
			n := int64(sz)
			want += des.ByteDur(n, 7)
			s.Request(n, nil)
		}
		eng.Run()
		return s.BusyTime() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByteGateBasic(t *testing.T) {
	g := NewByteGate("sram", 100)
	var got []int
	g.Acquire(60, func() { got = append(got, 1) })
	g.Acquire(60, func() { got = append(got, 2) }) // must wait
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	if g.Used() != 60 || g.Waiting() != 1 {
		t.Fatalf("used=%d waiting=%d", g.Used(), g.Waiting())
	}
	g.Release(60)
	if len(got) != 2 || g.Used() != 60 {
		t.Fatalf("got=%v used=%d", got, g.Used())
	}
}

func TestByteGateFIFONoBypass(t *testing.T) {
	g := NewByteGate("sram", 100)
	var got []int
	g.Acquire(90, func() { got = append(got, 1) })
	g.Acquire(50, func() { got = append(got, 2) }) // waits
	g.Acquire(5, func() { got = append(got, 3) })  // would fit, must NOT bypass
	if len(got) != 1 {
		t.Fatalf("bypass happened: %v", got)
	}
	g.Release(90)
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong grant order: %v", got)
	}
}

func TestByteGateOversized(t *testing.T) {
	g := NewByteGate("sram", 100)
	okBig := false
	g.Acquire(250, func() { okBig = true }) // larger than capacity
	if !okBig {
		t.Fatal("oversized request should be admitted into empty gate")
	}
	small := false
	g.Acquire(10, func() { small = true })
	if small {
		t.Fatal("gate should be saturated by oversized request")
	}
	g.Release(250)
	if !small {
		t.Fatal("waiter not granted after release")
	}
}

func TestByteGateUnlimited(t *testing.T) {
	g := NewByteGate("x", 0)
	n := 0
	for i := 0; i < 10; i++ {
		g.Acquire(1<<40, func() { n++ })
	}
	if n != 10 {
		t.Fatalf("unlimited gate blocked: %d", n)
	}
}

func TestByteGateReleasePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	NewByteGate("x", 10).Release(1)
}

func TestByteGateInvariant(t *testing.T) {
	// used never exceeds capacity for in-range requests.
	f := func(reqs []uint8) bool {
		g := NewByteGate("x", 64)
		var held []int64
		for _, r := range reqs {
			n := int64(r % 64)
			g.Acquire(n, func() { held = append(held, n) })
			if g.Used() > 64 {
				return false
			}
			if len(held) > 2 {
				// Free some in FIFO order to keep things moving.
				g.Release(held[0])
				held = held[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlotGate(t *testing.T) {
	g := NewSlotGate("fsm", 2)
	n := 0
	for i := 0; i < 5; i++ {
		g.Acquire(func() { n++ })
	}
	if n != 2 || g.Used() != 2 || g.Waiting() != 3 {
		t.Fatalf("n=%d used=%d waiting=%d", n, g.Used(), g.Waiting())
	}
	g.Release()
	if n != 3 {
		t.Fatalf("n=%d after release", n)
	}
	g.Release()
	g.Release()
	g.Release()
	if n != 5 || g.Used() != 1 {
		t.Fatalf("n=%d used=%d", n, g.Used())
	}
	if g.MaxUsed() != 2 {
		t.Fatalf("maxUsed=%d", g.MaxUsed())
	}
}

func TestSlotGateUnlimited(t *testing.T) {
	g := NewSlotGate("x", 0)
	n := 0
	for i := 0; i < 100; i++ {
		g.Acquire(func() { n++ })
	}
	if n != 100 {
		t.Fatalf("n=%d", n)
	}
}

func TestSlotGateReleasePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	NewSlotGate("x", 1).Release()
}

// TestGatesFIFOUnderReentrantAcquire pins FIFO grant order when grant
// callbacks themselves acquire and release: an acquisition made from
// inside a callback queues behind every older waiter, and a drained
// queue keeps no granted callbacks reachable.
func TestGatesFIFOUnderReentrantAcquire(t *testing.T) {
	t.Run("slot", func(t *testing.T) {
		g := NewSlotGate("fsm", 2)
		var got []string
		grant := func(name string) func() { return func() { got = append(got, name) } }
		g.Acquire(func() {})
		g.Acquire(func() {})
		g.Acquire(func() {
			got = append(got, "A")
			g.Acquire(grant("D")) // B is older: D must wait behind it
			g.Release()           // frees A's slot: B, not D, gets it
		})
		g.Acquire(func() {
			got = append(got, "B")
			g.Acquire(grant("E"))
		})
		g.Release()
		g.Release()
		g.Release()
		assertOrder(t, got, "A", "B", "D", "E")
		if g.Waiting() != 0 || len(g.q.items) != 0 {
			t.Fatalf("drained queue keeps %d waiting, %d slots", g.Waiting(), len(g.q.items))
		}
	})
	t.Run("byte", func(t *testing.T) {
		g := NewByteGate("sram", 100)
		var got []string
		grant := func(name string) func() { return func() { got = append(got, name) } }
		g.Acquire(100, func() {})
		g.Acquire(50, func() {
			got = append(got, "A")
			g.Acquire(50, grant("D"))
			g.Release(50)
		})
		g.Acquire(50, func() {
			got = append(got, "B")
			g.Acquire(10, grant("E"))
		})
		g.Release(100)
		g.Release(50)
		g.Release(50)
		assertOrder(t, got, "A", "B", "D", "E")
		if g.Waiting() != 0 || len(g.q.items) != 0 {
			t.Fatalf("drained queue keeps %d waiting, %d slots", g.Waiting(), len(g.q.items))
		}
	})
}

func assertOrder(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

// TestFIFOInsertAndReuse pins the shared queue: Insert keeps values
// behind every queued value ordering ahead of them (stable among
// equals), Pop zeroes its slot, and a full array with a dead prefix is
// compacted instead of grown.
func TestFIFOInsertAndReuse(t *testing.T) {
	var q FIFO[*int]
	val := func(v int) *int { return &v }
	desc := func(queued, v *int) bool { return *queued >= *v }
	firstFive := val(5)
	for _, v := range []*int{firstFive, val(3), val(5), val(9), val(1)} {
		q.Insert(v, desc)
	}
	var got []int
	for i := 0; q.Len() > 0; i++ {
		if i == 1 && q.Front() != firstFive {
			t.Fatal("Insert is not stable among equal values")
		}
		got = append(got, *q.Pop())
	}
	if fmt.Sprint(got) != "[9 5 5 3 1]" {
		t.Fatalf("insert order %v, want [9 5 5 3 1]", got)
	}
	if len(q.items) != 0 {
		t.Fatalf("drained queue keeps %d slots", len(q.items))
	}

	for i := 0; i < 4; i++ {
		q.Push(val(i))
	}
	c := cap(q.items)
	for q.Len() < c {
		q.Push(val(q.Len()))
	}
	q.Pop()
	q.Pop()
	if q.items[0] != nil || q.items[1] != nil {
		t.Fatal("popped slots still pin their values")
	}
	q.Push(val(100)) // full with a dead prefix: compact, do not grow
	if cap(q.items) != c || q.head != 0 || q.Len() != c-1 {
		t.Fatalf("cap %d (was %d), head %d, len %d after push into a full queue with a dead prefix",
			cap(q.items), c, q.head, q.Len())
	}
	if *q.Front() != 2 {
		t.Fatalf("front %d after compaction, want 2", *q.Front())
	}
}

// TestGateAcquireCtx pins the callback-with-context form that Acquire
// wraps on both gates: mixed Acquire and AcquireCtx waiters share one
// FIFO order (an oversized holder and an acquisition made from inside a
// grant callback included), and AcquireCtx with a static function and a
// pointer argument allocates nothing, granted at once or queued on a
// warm queue.
func TestGateAcquireCtx(t *testing.T) {
	type grantee struct {
		got  *[]string
		name string
	}
	record := func(a any) { g := a.(*grantee); *g.got = append(*g.got, g.name) }

	t.Run("byte", func(t *testing.T) {
		g := NewByteGate("sram", 100)
		var got []string
		ctx := func(name string) *grantee { return &grantee{&got, name} }
		g.AcquireCtx(250, record, ctx("big")) // oversized: admitted into the empty gate
		g.Acquire(60, func() {
			got = append(got, "A")
			g.AcquireCtx(5, record, ctx("D")) // fits, but B and C are older
		})
		g.AcquireCtx(50, record, ctx("B"))
		g.Acquire(10, func() { got = append(got, "C") })
		if g.Waiting() != 3 {
			t.Fatalf("%d waiting behind the oversized holder, want 3", g.Waiting())
		}
		g.Release(250) // A; then B does not fit, and blocks C and D
		assertOrder(t, got, "big", "A")
		if g.Waiting() != 3 || g.Used() != 60 {
			t.Fatalf("waiting %d used %d after A, want 3 and 60", g.Waiting(), g.Used())
		}
		g.Release(60)
		assertOrder(t, got, "big", "A", "B", "C", "D")
		if g.Used() != 65 || g.Waiting() != 0 {
			t.Fatalf("used %d waiting %d, want 65 and 0", g.Used(), g.Waiting())
		}
	})
	t.Run("slot", func(t *testing.T) {
		g := NewSlotGate("fsm", 1)
		var got []string
		ctx := func(name string) *grantee { return &grantee{&got, name} }
		g.AcquireCtx(record, ctx("A"))
		g.Acquire(func() {
			got = append(got, "B")
			g.AcquireCtx(record, ctx("D")) // queues behind C
		})
		g.AcquireCtx(record, ctx("C"))
		for range 3 {
			g.Release()
		}
		assertOrder(t, got, "A", "B", "C", "D")
		if g.Used() != 1 || g.Waiting() != 0 {
			t.Fatalf("used %d waiting %d, want 1 and 0", g.Used(), g.Waiting())
		}
	})
	t.Run("allocs", func(t *testing.T) {
		bg := NewByteGate("sram", 100)
		sg := NewSlotGate("fsm", 1)
		n := 0
		count := func(a any) { *a.(*int)++ }
		granted := func() {
			bg.AcquireCtx(10, count, &n)
			bg.Release(10)
			sg.AcquireCtx(count, &n)
			sg.Release()
		}
		queued := func() {
			bg.AcquireCtx(100, count, &n)
			bg.AcquireCtx(100, count, &n) // waits for the first
			bg.Release(100)
			bg.Release(100)
			sg.AcquireCtx(count, &n)
			sg.AcquireCtx(count, &n) // waits for the first
			sg.Release()
			sg.Release()
		}
		queued() // warm both queues' arrays
		for _, tc := range []struct {
			name string
			run  func()
		}{{"granted", granted}, {"queued", queued}} {
			if avg := testing.AllocsPerRun(100, tc.run); avg != 0 {
				t.Errorf("%s: AcquireCtx allocates %.1f per run, want 0", tc.name, avg)
			}
		}
		// The warm-up, then AllocsPerRun's own warm-up plus 100 runs.
		if want := 4 + 101*(2+4); n != want {
			t.Fatalf("%d grants, want %d", n, want)
		}
	})
}
