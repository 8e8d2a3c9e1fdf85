package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewEngineStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndStep(t *testing.T) {
	e := New(1)
	var fired []int
	e.Schedule(10*time.Millisecond, func() { fired = append(fired, 1) })
	e.Schedule(5*time.Millisecond, func() { fired = append(fired, 2) })

	if !e.Step() {
		t.Fatal("Step() = false, want true")
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
	if !e.Step() {
		t.Fatal("Step() = false, want true")
	}
	if e.Step() {
		t.Fatal("Step() = true on empty queue")
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 1 {
		t.Fatalf("fired = %v, want [2 1]", fired)
	}
}

func TestFIFOOrderingAtSameInstant(t *testing.T) {
	e := New(1)
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { fired = append(fired, i) })
	}
	e.RunAll()
	for i, v := range fired {
		if v != i {
			t.Fatalf("fired[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.Schedule(3*time.Second, func() {
		e.After(2*time.Second, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 5*time.Second {
		t.Fatalf("nested After fired at %v, want 5s", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	e.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := New(1)
	ev := e.Schedule(time.Second, func() {})
	ev.Cancel()
	ev.Cancel()
	if n := e.RunAll(); n != 0 {
		t.Fatalf("RunAll() = %d events, want 0", n)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	n := e.Run(2 * time.Second)
	if n != 2 {
		t.Fatalf("Run executed %d events, want 2", n)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	// The remaining event still fires on a later Run.
	e.Run(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want clock advanced to 10s", e.Now())
	}
}

func TestRunAdvancesClockWithEmptyQueue(t *testing.T) {
	e := New(1)
	e.Run(7 * time.Second)
	if e.Now() != 7*time.Second {
		t.Fatalf("Now() = %v, want 7s", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(500*time.Millisecond, func() {})
	})
	e.RunAll()
}

func TestNilCallbackPanics(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.Schedule(time.Second, nil)
}

func TestEventsScheduledDuringExecution(t *testing.T) {
	e := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunAll()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*time.Millisecond {
		t.Fatalf("Now() = %v, want 99ms", e.Now())
	}
}

func TestProcessedCounts(t *testing.T) {
	e := New(1)
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {})
	}
	e.RunAll()
	if e.Processed() != 5 {
		t.Fatalf("Processed() = %d, want 5", e.Processed())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []time.Duration {
		e := New(seed)
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				jitter := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
				e.After(jitter+time.Microsecond, step)
			}
		}
		e.Schedule(0, step)
		e.RunAll()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestEventOrderInvariant checks with random schedules that execution
// order is always sorted by (time, insertion order).
func TestEventOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New(seed)
		n := 200
		type rec struct {
			at  time.Duration
			seq int
		}
		scheduled := make([]rec, 0, n)
		var fired []rec
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(50)) * time.Millisecond
			r := rec{at: at, seq: i}
			scheduled = append(scheduled, r)
			e.Schedule(at, func() { fired = append(fired, r) })
		}
		e.RunAll()
		if len(fired) != n {
			return false
		}
		for i := 1; i < n; i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEventRecycledAfterFire checks that a fired event's struct is reused
// by the next Schedule instead of being garbage.
func TestEventRecycledAfterFire(t *testing.T) {
	e := New(1)
	ev1 := e.Schedule(time.Millisecond, func() {})
	e.RunAll()
	ev2 := e.Schedule(time.Second, func() {})
	if ev1 != ev2 {
		t.Fatal("fired event was not recycled by the next Schedule")
	}
	if ev2.Canceled() {
		t.Fatal("recycled event inherited a stale canceled flag")
	}
	if ev2.At() != time.Second {
		t.Fatalf("recycled event At() = %v, want 1s", ev2.At())
	}
}

// TestEventRecycledAfterCancel checks that canceled events are recycled
// once the queue discards them, with the canceled flag reset.
func TestEventRecycledAfterCancel(t *testing.T) {
	e := New(1)
	ev1 := e.Schedule(time.Millisecond, func() { t.Error("canceled event fired") })
	ev1.Cancel()
	e.RunAll() // discards the canceled event
	fired := false
	ev2 := e.Schedule(time.Second, func() { fired = true })
	if ev1 != ev2 {
		t.Fatal("canceled event was not recycled by the next Schedule")
	}
	if ev2.Canceled() {
		t.Fatal("recycled event inherited a stale canceled flag")
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestFIFOOrderingAcrossReuse checks the same-instant FIFO tie-break is
// preserved when the queue is built from recycled Event structs.
func TestFIFOOrderingAcrossReuse(t *testing.T) {
	e := New(1)
	// Populate and drain the freelist.
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunAll()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { fired = append(fired, i) })
	}
	// Interleave a cancellation to exercise discard + reuse in one pass.
	ev := e.Schedule(time.Second, func() { t.Error("canceled event fired") })
	ev.Cancel()
	e.RunAll()
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("fired[%d] = %d, want %d (FIFO tie-break violated across reuse)", i, v, i)
		}
	}
}

// TestRescheduleInsideCallbackReusesEvent checks the hot-path pattern: a
// self-rescheduling timer runs allocation-free because the struct released
// before the callback is immediately reused by the After inside it.
func TestRescheduleInsideCallbackReusesEvent(t *testing.T) {
	e := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			e.After(time.Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunAll()
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if got := len(e.free); got != 1 {
		t.Fatalf("freelist holds %d events after drain, want 1 (one struct recycled throughout)", got)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		e.RunAll()
	}
}

// TestSteadyStateZeroAlloc is the enforcing guard for the freelist's
// zero-alloc property: after warm-up, scheduling and firing events must
// not allocate. (BenchmarkEngineThroughput reports the same property but
// a benchmark cannot fail CI on a regression.)
func TestSteadyStateZeroAlloc(t *testing.T) {
	e := New(1)
	fn := func() {}
	// Warm up the freelist and the queue's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(time.Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkEngineThroughput measures steady-state event throughput with a
// population of concurrent self-rescheduling timers, the shape of a busy
// simulation. With the event freelist the steady state is allocation-free:
// b.ReportAllocs guards the zero-alloc property.
func BenchmarkEngineThroughput(b *testing.B) {
	const timers = 64
	e := New(1)
	remaining := b.N
	ticks := make([]func(), timers)
	for i := 0; i < timers; i++ {
		i := i
		ticks[i] = func() {
			remaining--
			if remaining > 0 {
				// Deterministic pseudo-jitter keeps the heap shuffled.
				d := time.Duration(1+(remaining*7919)%64) * time.Microsecond
				e.After(d, ticks[i])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < timers && i < b.N; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, ticks[i])
	}
	e.RunAll()
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(e.Processed())/b.Elapsed().Seconds(), "events/sec")
	}
}

func BenchmarkTimerWheelChurn(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunAll()
}

// TestPendingCountsLiveEventsOnly is the regression test for Pending():
// it must report live events, not raw queue length — canceled events are
// unlinked eagerly and never counted.
func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := New(1)
	evs := make([]*Event, 5)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending() = %d, want 5", got)
	}
	evs[1].Cancel()
	evs[3].Cancel()
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after 2 cancels, want 3", got)
	}
	e.Step()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after a fire, want 2", got)
	}
	// A far-future (overflow-heap) event counts too, and uncounts on cancel.
	far := e.Schedule(5*time.Hour, func() {})
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d with overflow event, want 3", got)
	}
	far.Cancel()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after overflow cancel, want 2", got)
	}
	e.RunAll()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
}

// TestCancelThenFireSameTick cancels one of several events sharing a
// scheduler tick (sub-tick at differences) and checks the survivors fire
// in exact (at, seq) order.
func TestCancelThenFireSameTick(t *testing.T) {
	e := New(1)
	var fired []int
	// All three land in the same 1024ns tick but differ in at.
	a := e.Schedule(900*time.Nanosecond, func() { fired = append(fired, 0) })
	e.Schedule(200*time.Nanosecond, func() { fired = append(fired, 1) })
	e.Schedule(500*time.Nanosecond, func() { fired = append(fired, 2) })
	_ = a
	a.Cancel()
	e.RunAll()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2] (sub-tick order with mid-slot cancel)", fired)
	}
	if e.Now() != 500*time.Nanosecond {
		t.Fatalf("Now() = %v, want 500ns", e.Now())
	}
}

// TestRescheduleAcrossWheelLevels moves one event between delays that
// live on different wheel levels (and the overflow heap) and checks it
// fires exactly once, at the final time.
func TestRescheduleAcrossWheelLevels(t *testing.T) {
	e := New(1)
	var firedAt []time.Duration
	ev := e.Schedule(50*time.Microsecond, func() { firedAt = append(firedAt, e.Now()) }) // level 0
	ev.RescheduleTo(10 * time.Millisecond)                                               // level 1
	ev.RescheduleTo(5 * time.Second)                                                     // level 2
	ev.RescheduleTo(3 * time.Hour)                                                       // overflow heap
	ev.RescheduleTo(30 * time.Minute)                                                    // back onto the wheels
	if ev.At() != 30*time.Minute {
		t.Fatalf("At() = %v after reschedules, want 30m", ev.At())
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1 (reschedule must not duplicate)", got)
	}
	e.RunAll()
	if len(firedAt) != 1 || firedAt[0] != 30*time.Minute {
		t.Fatalf("firedAt = %v, want exactly [30m]", firedAt)
	}
}

// TestRescheduleOrdersAsNewest checks RescheduleTo is equivalent to
// cancel+schedule for FIFO tie-breaks: a rescheduled event fires after
// events already scheduled at its new instant.
func TestRescheduleOrdersAsNewest(t *testing.T) {
	e := New(1)
	var fired []string
	a := e.Schedule(time.Second, func() { fired = append(fired, "a") })
	e.Schedule(time.Second, func() { fired = append(fired, "b") })
	a.RescheduleTo(time.Second) // same instant, but now the newest
	e.RunAll()
	if len(fired) != 2 || fired[0] != "b" || fired[1] != "a" {
		t.Fatalf("fired = %v, want [b a]", fired)
	}
}

// TestRescheduleUnscheduledPanics documents that RescheduleTo is only
// valid on a pending event.
func TestRescheduleUnscheduledPanics(t *testing.T) {
	e := New(1)
	ev := e.Schedule(time.Millisecond, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("RescheduleTo on a fired event did not panic")
		}
	}()
	ev.RescheduleTo(time.Second)
}

// TestZeroDelaySelfReschedule chains After(0, ...) callbacks: each must
// fire at the same instant, in scheduling order, without livelocking the
// current tick's slot.
func TestZeroDelaySelfReschedule(t *testing.T) {
	e := New(1)
	e.Schedule(time.Millisecond, func() {}) // move now off zero first
	e.RunAll()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 500 {
			e.After(0, tick)
		}
	}
	e.After(0, tick)
	e.RunAll()
	if count != 500 {
		t.Fatalf("count = %d, want 500", count)
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("Now() = %v, want 1ms (zero-delay chain must not advance time)", e.Now())
	}
}

// TestOverflowHeapPromotion schedules events beyond the wheels' ~73 min
// horizon and checks they are promoted onto the wheels and fired in
// order, interleaved correctly with near events scheduled later.
func TestOverflowHeapPromotion(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	record := func() { fired = append(fired, e.Now()) }
	times := []time.Duration{
		90 * time.Minute, // beyond horizon at schedule time
		2 * time.Hour,
		100 * time.Minute,
		time.Second, // near
	}
	for _, at := range times {
		at := at
		e.Schedule(at, record)
	}
	// An event scheduled from a callback close to a promoted one must
	// still order correctly.
	e.Schedule(89*time.Minute, func() {
		e.After(time.Minute+time.Millisecond, record) // 90min+1ms
	})
	e.RunAll()
	want := []time.Duration{
		time.Second,
		90 * time.Minute,
		90*time.Minute + time.Millisecond,
		100 * time.Minute,
		2 * time.Hour,
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

// TestCancelInOverflowHeap cancels events parked in the overflow heap,
// including the heap minimum, and checks the survivors still fire.
func TestCancelInOverflowHeap(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	record := func() { fired = append(fired, e.Now()) }
	evs := make([]*Event, 6)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i+2)*time.Hour, record)
	}
	evs[0].Cancel() // heap minimum
	evs[3].Cancel() // interior
	evs[5].Cancel() // last
	e.RunAll()
	want := []time.Duration{3 * time.Hour, 4 * time.Hour, 6 * time.Hour}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

// TestWheelStress drives a randomized schedule/cancel mix with delays
// spanning every wheel level and the overflow heap, and checks execution
// order against a sorted (at, seq) reference.
func TestWheelStress(t *testing.T) {
	g := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New(seed)
		type item struct {
			ev       *Event
			at       time.Duration
			seq      int
			canceled bool
		}
		var items []*item
		var fired []int
		seq := 0
		for i := 0; i < 200; i++ {
			if rng.Intn(10) < 7 || len(items) == 0 {
				mag := time.Duration(1) << uint(rng.Intn(42))
				at := e.Now() + time.Duration(rng.Int63n(int64(mag))) + 1
				it := &item{at: at, seq: seq}
				seq++
				it.ev = e.Schedule(at, func() { fired = append(fired, it.seq) })
				items = append(items, it)
			} else {
				live := make([]*item, 0, len(items))
				for _, it := range items {
					if !it.canceled {
						live = append(live, it)
					}
				}
				if len(live) == 0 {
					continue
				}
				it := live[rng.Intn(len(live))]
				it.ev.Cancel()
				it.canceled = true
			}
		}
		e.RunAll()
		// Expected: live items sorted by (at, seq).
		var want []*item
		for _, it := range items {
			if !it.canceled {
				want = append(want, it)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCancelHeavyChurn measures the MAC-exchange shape: timers that
// are armed and then canceled or moved before firing (NAV, ACK waits,
// frozen backoffs). The wheel makes cancel O(1) with no tombstones to
// drag through later pops.
func BenchmarkCancelHeavyChurn(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Arm four exchange timers, move one, cancel three — only the
		// last survives to fire, as in a typical CSMA/CA exchange.
		difs := e.After(50*time.Microsecond, fn)
		backoff := e.After(300*time.Microsecond, fn)
		nav := e.After(500*time.Microsecond, fn)
		ack := e.After(700*time.Microsecond, fn)
		nav.RescheduleTo(e.Now() + 900*time.Microsecond)
		difs.Cancel()
		backoff.Cancel()
		nav.Cancel()
		_ = ack
		e.Step() // fire the ACK timeout
	}
}

// TestScheduleNearAfterDeadlinePeek is the regression test for the
// cursor-overrun bug: Run's deadline peek of a far-future event must not
// advance the wheel cursor past `until`, or a later Schedule of a nearer
// event lands below the cursor — mis-leveled at best (events fire out of
// order), livelocked in the overflow drain at worst.
func TestScheduleNearAfterDeadlinePeek(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	record := func() { fired = append(fired, e.Now()) }

	// A far event (beyond the wheel horizon) forces the peek to consider
	// jumping the cursor to its block.
	e.Schedule(100*time.Minute, record)
	if n := e.Run(time.Millisecond); n != 0 {
		t.Fatalf("Run fired %d events before the deadline, want 0", n)
	}
	// Schedule nearer events after the bounded peek; they must fire
	// first, in time order.
	e.Schedule(2*time.Millisecond, record)
	e.Schedule(90*time.Minute, record)
	done := make(chan uint64, 1)
	go func() { done <- e.RunAll() }()
	select {
	case n := <-done:
		if n != 3 {
			t.Fatalf("RunAll fired %d events, want 3", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunAll livelocked (cursor advanced past now by the deadline peek)")
	}
	want := []time.Duration{2 * time.Millisecond, 90 * time.Minute, 100 * time.Minute}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v (order violated)", i, fired[i], want[i])
		}
	}
	// Repeated bounded Runs interleaved with schedules stay consistent.
	e.Schedule(e.Now()+time.Hour, record)
	e.Run(e.Now() + time.Minute)
	e.Schedule(e.Now()+time.Second, record)
	e.RunAll()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
	if fired[3] >= fired[4] {
		t.Fatalf("interleaved deadline runs fired out of order: %v", fired[3:])
	}
}

// sortedModel is the reference scheduler the differential checks run the
// engine against: a slice kept sorted by (at, seq) with binary-search
// insertion. Canceled entries stay in place, flagged dead, and are
// skipped when they reach the front.
type sortedModel struct {
	q   []*modelEvent
	seq uint64
}

type modelEvent struct {
	at   time.Duration
	seq  uint64
	id   int
	dead bool
}

func (m *sortedModel) push(at time.Duration, id int) *modelEvent {
	r := &modelEvent{at: at, seq: m.seq, id: id}
	m.seq++
	i := sort.Search(len(m.q), func(i int) bool {
		q := m.q[i]
		return q.at > r.at || (q.at == r.at && q.seq > r.seq)
	})
	m.q = append(m.q, nil)
	copy(m.q[i+1:], m.q[i:])
	m.q[i] = r
	return r
}

// pop removes and returns the earliest live event at or before until.
func (m *sortedModel) pop(until time.Duration) *modelEvent {
	for len(m.q) > 0 {
		r := m.q[0]
		if r.dead {
			m.q = m.q[1:]
			continue
		}
		if r.at > until {
			return nil
		}
		m.q = m.q[1:]
		return r
	}
	return nil
}

// engineDiff drives an Engine and a sortedModel through the same
// Schedule / Cancel / RescheduleTo / Run sequence and compares the fire
// order. Every event with a non-negative even id schedules a child from
// its callback (child id ^id, delay childDelay(id)), so in-callback
// schedules — including same-instant ones — are covered too.
type engineDiff struct {
	tb      testing.TB
	e       *Engine
	m       sortedModel
	nextID  int
	live    []int       // pending ids, for picking cancel/reschedule targets
	pos     map[int]int // id -> index in live
	handles map[int]*Event
	refs    map[int]*modelEvent
	fired   []int
	want    []int
}

func newEngineDiff(tb testing.TB, seed int64) *engineDiff {
	return &engineDiff{tb: tb, e: New(seed), pos: map[int]int{}, handles: map[int]*Event{}, refs: map[int]*modelEvent{}}
}

func childDelay(id int) time.Duration { return time.Duration(id%5) * 100 * time.Microsecond }

func (d *engineDiff) untrack(id int) {
	i := d.pos[id]
	last := d.live[len(d.live)-1]
	d.live[i], d.pos[last] = last, i
	d.live = d.live[:len(d.live)-1]
	delete(d.pos, id)
	delete(d.handles, id)
	delete(d.refs, id)
}

func (d *engineDiff) schedule(at time.Duration) {
	id := d.nextID
	d.nextID++
	d.scheduleEngine(at, id)
	d.refs[id] = d.m.push(at, id)
}

// scheduleEngine schedules id on the engine only; the model side of an
// in-callback child is pushed when run replays its parent.
func (d *engineDiff) scheduleEngine(at time.Duration, id int) {
	d.handles[id] = d.e.Schedule(at, func() {
		d.untrack(id)
		d.fired = append(d.fired, id)
		if id >= 0 && id%2 == 0 {
			d.scheduleEngine(d.e.Now()+childDelay(id), ^id)
		}
	})
	d.pos[id] = len(d.live)
	d.live = append(d.live, id)
}

// cancel cancels the k-th pending event (k taken modulo the count).
func (d *engineDiff) cancel(k int) {
	if len(d.live) == 0 {
		return
	}
	id := d.live[k%len(d.live)]
	d.handles[id].Cancel()
	d.refs[id].dead = true
	d.untrack(id)
}

// reschedule moves the k-th pending event to at.
func (d *engineDiff) reschedule(k int, at time.Duration) {
	if len(d.live) == 0 {
		return
	}
	id := d.live[k%len(d.live)]
	d.handles[id].RescheduleTo(at)
	d.refs[id].dead = true
	d.refs[id] = d.m.push(at, id)
}

// run advances both schedulers to until and checks they fired the same
// events in the same order and agree on what is still pending.
func (d *engineDiff) run(until time.Duration, label string) {
	d.tb.Helper()
	d.e.Run(until)
	for r := d.m.pop(until); r != nil; r = d.m.pop(until) {
		d.want = append(d.want, r.id)
		if r.id >= 0 && r.id%2 == 0 {
			child := d.m.push(r.at+childDelay(r.id), ^r.id)
			if _, pending := d.pos[^r.id]; pending {
				d.refs[^r.id] = child
			}
		}
	}
	if len(d.fired) != len(d.want) {
		d.tb.Fatalf("%s: engine fired %d events, model fired %d", label, len(d.fired), len(d.want))
	}
	for i := range d.want {
		if d.fired[i] != d.want[i] {
			d.tb.Fatalf("%s: fired[%d] = %d, model wants %d", label, i, d.fired[i], d.want[i])
		}
	}
	if d.e.Pending() != len(d.live) {
		d.tb.Fatalf("%s: Pending() = %d, want %d", label, d.e.Pending(), len(d.live))
	}
}

// TestDifferentialAgainstSortedModel runs the engine against the sorted
// reference model, mixing bounded Run calls, between-run and in-callback
// schedules, cancels, and reschedules. Two inputs: "mixed" spreads
// events over every wheel level and the overflow heap; "dense-coarse-slot"
// piles thousands of events into one level-1 or level-2 slot (ties
// included) and stops some runs mid-slot, so those events cascade down
// to level 0 while others are canceled or moved into and out of the slot.
func TestDifferentialAgainstSortedModel(t *testing.T) {
	type op func(d *engineDiff, rng *rand.Rand, round int)
	inputs := []struct {
		name          string
		seeds, rounds int
		ops           int
		step          op
		until         func(d *engineDiff, rng *rand.Rand, round int) time.Duration
	}{
		{
			name: "mixed", seeds: 40, rounds: 30, ops: 10,
			step: func(d *engineDiff, rng *rand.Rand, _ int) {
				randomAt := func() time.Duration {
					mag := time.Duration(1) << uint(rng.Intn(44)) // up to ~4.8h, past horizon
					return d.e.Now() + time.Duration(rng.Int63n(int64(mag)))
				}
				switch rng.Intn(4) {
				case 0, 1:
					d.schedule(randomAt())
				case 2:
					d.cancel(rng.Int())
				case 3:
					d.reschedule(rng.Int(), randomAt())
				}
			},
			until: func(d *engineDiff, rng *rand.Rand, _ int) time.Duration {
				return d.e.Now() + time.Duration(rng.Int63n(int64(90*time.Minute)))
			},
		},
		{
			name: "dense-coarse-slot", seeds: 3, rounds: 8, ops: 4000,
			step: func(d *engineDiff, rng *rand.Rand, round int) {
				base, span := coarseSlot(d.e.Now(), round)
				inSlot := func() time.Duration {
					if rng.Intn(4) == 0 {
						return base + time.Duration(rng.Intn(8))*span/8 // same-instant ties
					}
					return base + time.Duration(rng.Int63n(int64(span)))
				}
				switch r := rng.Intn(20); {
				case r < 14:
					d.schedule(inSlot())
				case r < 17:
					d.cancel(rng.Int())
				case r < 19:
					d.reschedule(rng.Int(), inSlot())
				default: // move out of the slot, to any level
					d.reschedule(rng.Int(), d.e.Now()+time.Duration(rng.Int63n(1<<uint(rng.Intn(34)))))
				}
			},
			until: func(d *engineDiff, rng *rand.Rand, round int) time.Duration {
				base, span := coarseSlot(d.e.Now(), round)
				if round%3 == 0 {
					return base + span/2 // stop mid-slot: cascade, then keep scheduling
				}
				return base + span + time.Duration(rng.Int63n(int64(span)))
			},
		},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			for seed := int64(0); seed < int64(in.seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				d := newEngineDiff(t, seed)
				for round := 0; round < in.rounds; round++ {
					// The target instant is fixed before the round's ops so
					// that in-slot schedules and the stop agree on the slot.
					until := in.until(d, rng, round)
					for i := 0; i < in.ops; i++ {
						in.step(d, rng, round)
					}
					d.run(until, fmt.Sprintf("seed %d round %d", seed, round))
				}
				d.run(1<<62, fmt.Sprintf("seed %d drain", seed))
				if len(d.live) != 0 {
					t.Fatalf("seed %d: %d events left after the drain", seed, len(d.live))
				}
			}
		})
	}
}

// TestCoarseSlotCascade fills one slot of each coarse level with events
// scheduled latest-first, so the slot's unordered tail-append list is in
// exactly reverse time order, with same-instant ties mixed in. Some are
// canceled and some moved within the slot; a run stops mid-slot and more
// events arrive in the slot's remaining span. The fire order must still
// be (at, schedule order), which only the cascade into level 0 restores.
func TestCoarseSlotCascade(t *testing.T) {
	for level := 1; level < numLevels; level++ {
		level := level
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			const n = 2000
			span := time.Duration(1) << (tickShift + slotBits*level)
			base := span // the slot covering [span, 2*span) is on this level at t=0
			e := New(1)
			rng := rand.New(rand.NewSource(int64(level)))

			// key is an event's place in FIFO order among same-instant
			// events: its schedule order, renewed by a move.
			type rec struct {
				at  time.Duration
				key int
			}
			var got []rec
			live := map[int]*Event{}
			at, key := map[int]time.Duration{}, map[int]int{}
			next := 0
			add := func(when time.Duration) {
				id := next
				next++
				at[id], key[id] = when, id
				live[id] = e.Schedule(when, func() {
					got = append(got, rec{e.Now(), key[id]})
					delete(live, id)
				})
			}
			for i := 0; i < n; i++ {
				// Latest first; runs of four events share an instant.
				add(base + span - 1 - time.Duration(i/4*4)*span/(2*n))
			}
			if lv := live[0].level; int(lv) != level {
				t.Fatalf("slot events filed on level %d, want %d", lv, level)
			}
			for id := 0; id < n; id += 7 {
				live[id].Cancel()
				delete(live, id)
			}
			for id := 3; id < n; id += 11 {
				if ev, ok := live[id]; ok {
					at[id], key[id] = base+time.Duration(rng.Int63n(int64(span))), next
					next++
					ev.RescheduleTo(at[id])
				}
			}
			mid := base + span/2
			e.Run(mid)
			for i := 0; i < n/4; i++ {
				add(mid + 1 + time.Duration(rng.Int63n(int64(span/2-1))))
			}
			want := append([]rec(nil), got...) // fired before the stop
			for id := range live {
				want = append(want, rec{at[id], key[id]})
			}
			sort.Slice(want, func(i, j int) bool {
				return want[i].at < want[j].at || (want[i].at == want[j].at && want[i].key < want[j].key)
			})
			e.RunAll()
			if e.Pending() != 0 {
				t.Fatalf("Pending() = %d after RunAll", e.Pending())
			}
			if len(got) != len(want) {
				t.Fatalf("fired %d events, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fired[%d] = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// coarseSlot returns the span of the next aligned level-1 (odd rounds)
// or level-2 (even rounds) slot after now: 256 ticks (~262 µs) or 65536
// ticks (~67 ms). Events there sit on a coarse level until a cascade.
func coarseSlot(now time.Duration, round int) (base, span time.Duration) {
	shift := tickShift + slotBits*(2-round%2)
	span = time.Duration(1) << shift
	return (now>>shift + 1) << shift, span
}

// FuzzEngineOps reads its input as a program of three-byte ops (opcode,
// two operands) over Schedule, Cancel, RescheduleTo and Run, and checks
// the engine's fire order against the sorted model. One opcode schedules
// a burst of up to 512 events into a single coarse slot, so short inputs
// reach the dense-slot shapes as well as every wheel level and the
// overflow heap.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{2, 31, 0, 5, 0, 200, 3, 1, 7, 4, 9, 40, 2, 15, 1, 5, 255, 255})
	f.Add([]byte{1, 43, 255, 1, 20, 3, 0, 255, 255, 4, 30, 3, 5, 10, 10, 2, 7, 6, 5, 0, 30})
	f.Add([]byte{2, 63, 1, 2, 63, 1, 5, 0, 32, 4, 3, 10, 3, 9, 9, 5, 255, 200})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const maxOps, maxPending = 256, 4096
		d := newEngineDiff(t, 1)
		for i := 0; i+2 < len(prog) && i < 3*maxOps; i += 3 {
			a, b := prog[i+1], prog[i+2]
			full := len(d.live) >= maxPending
			switch prog[i] % 6 {
			case 0: // fine: within ~4 ms of now
				if !full {
					d.schedule(d.e.Now() + time.Duration(int(a)<<8|int(b))*64)
				}
			case 1: // any level, up to past the overflow horizon
				if !full {
					d.schedule(d.e.Now() + time.Duration(b)<<(a%44))
				}
			case 2: // burst into one coarse slot, with same-instant ties
				base, span := coarseSlot(d.e.Now(), int(b))
				x := uint64(a)<<8 | uint64(b) | 1
				for j := 0; j < (int(a)%32+1)*16 && len(d.live) < maxPending; j++ {
					x = x*6364136223846793005 + 1442695040888963407
					d.schedule(base + time.Duration(x>>33)%span/time.Duration(1+int(b)%4))
				}
			case 3:
				d.cancel(int(a)<<8 | int(b))
			case 4:
				d.reschedule(int(a), d.e.Now()+time.Duration(b)<<(a%40))
			case 5:
				d.run(d.e.Now()+time.Duration(int(a)<<8|int(b))<<(b%24), fmt.Sprintf("op %d", i/3))
			}
		}
		d.run(1<<62, "drain")
	})
}

// BenchmarkDenseCoarseSlot fills level-2 slots (65536 ticks, ~67 ms
// each) with n events apiece at random instants, then drains them
// through the cascades. Every batch holds the same 64k events — 64k/n
// slots of n — so the working set is fixed and only the slot population
// varies. One op is one event scheduled and fired: ns/op must stay flat
// from 1k to 64k events per slot, where an insert that scanned a coarse
// slot's list would grow linearly with n.
func BenchmarkDenseCoarseSlot(b *testing.B) {
	const total = 1 << 16
	const span = time.Duration(1) << (tickShift + 2*slotBits)
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ats := make([]time.Duration, total)
			for i := range ats {
				// Slots 1..total/n of level 2, interleaved; time order
				// within each slot is random.
				ats[i] = time.Duration(i%(total/n)+1)*span + time.Duration(rng.Int63n(int64(span)))
			}
			e := New(1)
			fn := func() {}
			batch := func(k int) {
				e.Reset(1)
				for _, at := range ats[:k] {
					e.Schedule(at, fn)
				}
				e.RunAll()
			}
			batch(total) // warm the event freelist
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += total {
				batch(min(total, b.N-done))
			}
		})
	}
}

// popRecorder records every observed pop for the observer tests.
type popRecorder struct {
	ats  []time.Duration
	seqs []uint64
}

func (p *popRecorder) EventFired(at time.Duration, seq uint64) {
	p.ats = append(p.ats, at)
	p.seqs = append(p.seqs, seq)
}

func TestObserverSeesEveryPopInOrder(t *testing.T) {
	e := New(1)
	rec := &popRecorder{}
	e.SetObserver(rec)
	var fired []time.Duration
	for _, d := range []time.Duration{30, 10, 20} {
		d := d * time.Millisecond
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	// An event scheduled from a callback is observed too.
	e.Schedule(5*time.Millisecond, func() {
		e.After(time.Millisecond, func() {})
	})
	e.RunAll()
	if len(rec.ats) != 5 {
		t.Fatalf("observer saw %d pops, want 5", len(rec.ats))
	}
	for i := 1; i < len(rec.ats); i++ {
		if rec.ats[i] < rec.ats[i-1] || (rec.ats[i] == rec.ats[i-1] && rec.seqs[i] <= rec.seqs[i-1]) {
			t.Fatalf("observer pops out of (at, seq) order at %d: %v/%v after %v/%v",
				i, rec.ats[i], rec.seqs[i], rec.ats[i-1], rec.seqs[i-1])
		}
	}
	// Disabling the observer stops the stream.
	e.SetObserver(nil)
	e.Schedule(e.Now()+time.Millisecond, func() {})
	e.RunAll()
	if len(rec.ats) != 5 {
		t.Fatalf("disabled observer still saw pops: %d", len(rec.ats))
	}
}
