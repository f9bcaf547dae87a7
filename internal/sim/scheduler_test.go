package sim

import (
	"testing"
	"testing/quick"
)

// schedulerKinds are every implementation the differential tests compare.
var schedulerKinds = []SchedulerKind{CalendarQueue, BinaryHeap}

func TestSchedulerKindString(t *testing.T) {
	if CalendarQueue.String() != "calendar-queue" || BinaryHeap.String() != "binary-heap" {
		t.Fatalf("kind names: %q %q", CalendarQueue, BinaryHeap)
	}
	if _, ok := NewEngine().scheduler().(*calendarQueue); !ok {
		t.Fatalf("default scheduler is %T, want the calendar queue", NewEngine().scheduler())
	}
	if _, ok := NewEngineWithScheduler(BinaryHeap).scheduler().(*eventHeap); !ok {
		t.Fatal("NewEngineWithScheduler ignored the kind")
	}
}

// trace is one engine's observable execution record.
type trace struct {
	recs     []traceRec
	executed uint64
	now      Cycle
}

type traceRec struct {
	when Cycle
	id   uint64
}

// driveTrace runs a deterministic but randomized scenario on e: a mix of
// Schedule/At/ScheduleArg events over short (bucket-path) and far-future
// (overflow-path) delays, callbacks that schedule children, and interleaved
// bounded Run calls. Every decision derives from seed or from event ids, so
// two engines given the same seed diverge only if their event orders do.
func driveTrace(e *Engine, seed uint64) trace {
	const (
		topEvents   = 300
		budget      = 6000 // total events, bounds the fan-out
		shortSpan   = 200  // within the calendar window
		longSpan    = 5000 // mostly beyond it
		maxChildren = 3
	)
	rng := NewRNG(seed)
	var tr trace
	var nextID uint64

	var schedule func(delay Cycle)
	onRun := func(id uint64) {
		tr.recs = append(tr.recs, traceRec{when: e.now, id: id})
		r := NewRNG(id*0x9E3779B97F4A7C15 + seed)
		for k := uint64(0); k < r.Uint64n(maxChildren); k++ {
			if nextID >= budget {
				return
			}
			span := uint64(shortSpan)
			if r.Uint64n(10) == 0 {
				span = longSpan
			}
			schedule(Cycle(r.Uint64n(span)))
		}
	}
	schedule = func(delay Cycle) {
		id := nextID
		nextID++
		if id%2 == 0 {
			e.ScheduleArg(delay, onRun, id)
		} else {
			e.Schedule(delay, func() { onRun(id) })
		}
	}

	for i := 0; i < topEvents; i++ {
		span := uint64(shortSpan)
		if rng.Uint64n(4) == 0 {
			span = longSpan
		}
		schedule(Cycle(rng.Uint64n(span)))
		// Occasionally drain up to a bound, exercising Run's limit handling
		// (including limits that land between pending events).
		if rng.Uint64n(8) == 0 {
			e.Run(e.now + Cycle(rng.Uint64n(longSpan/2)))
		}
	}
	e.RunAll()
	tr.executed = e.Executed()
	tr.now = e.Now()
	return tr
}

// TestSchedulerDifferential is the determinism cross-check demanded by the
// calendar-queue design: under randomized scenarios, the calendar queue
// must execute the exact event sequence the reference heap executes.
func TestSchedulerDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		ref := driveTrace(NewEngineWithScheduler(BinaryHeap), seed)
		got := driveTrace(NewEngineWithScheduler(CalendarQueue), seed)
		if got.executed != ref.executed || got.now != ref.now {
			t.Fatalf("seed %d: executed/now = %d/%d, reference %d/%d",
				seed, got.executed, got.now, ref.executed, ref.now)
		}
		if len(got.recs) != len(ref.recs) {
			t.Fatalf("seed %d: %d records vs reference %d", seed, len(got.recs), len(ref.recs))
		}
		for i := range ref.recs {
			if got.recs[i] != ref.recs[i] {
				t.Fatalf("seed %d: event %d = %+v, reference %+v",
					seed, i, got.recs[i], ref.recs[i])
			}
		}
	}
}

// Property form: arbitrary delay lists execute in identical order on both
// schedulers, including the overflow and window-jump paths.
func TestSchedulerDifferentialProperty(t *testing.T) {
	f := func(delays []uint16, limits []uint16) bool {
		if len(delays) > 400 {
			delays = delays[:400]
		}
		run := func(kind SchedulerKind) []traceRec {
			e := NewEngineWithScheduler(kind)
			var recs []traceRec
			li := 0
			for i, d := range delays {
				id := uint64(i)
				e.AtArg(e.now+Cycle(d), func(arg uint64) {
					recs = append(recs, traceRec{when: e.now, id: arg})
				}, id)
				if len(limits) > 0 && i%7 == 3 {
					e.Run(e.now + Cycle(limits[li%len(limits)]))
					li++
				}
			}
			e.RunAll()
			return recs
		}
		a, b := run(BinaryHeap), run(CalendarQueue)
		if len(a) != len(b) || len(a) != len(delays) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The ordering unit tests from engine_test.go, replayed on every kind so
// the reference heap cannot silently rot.
func TestSchedulerKindsOrdering(t *testing.T) {
	for _, kind := range schedulerKinds {
		e := NewEngineWithScheduler(kind)
		var order []int
		e.Schedule(10, func() { order = append(order, 2) })
		e.Schedule(5, func() { order = append(order, 1) })
		for i := 0; i < 50; i++ {
			i := i
			e.Schedule(10, func() { order = append(order, 3+i) })
		}
		e.Schedule(5+calendarWindow*3, func() { order = append(order, 53) })
		e.RunAll()
		if len(order) != 53 {
			t.Fatalf("%v: executed %d events, want 53", kind, len(order))
		}
		for i, v := range order {
			if v != i+1 {
				t.Fatalf("%v: order[%d] = %d, want %d", kind, i, v, i+1)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("%v: %d pending after RunAll", kind, e.Pending())
		}
	}
}

// Run must not advance the window past its limit: events scheduled after a
// bounded Run, at cycles the queue has already inspected beyond, must still
// execute in correct order. This is the regression guard for the calendar
// queue's "never settle past limit" rule.
func TestCalendarRunLimitThenEarlierSchedule(t *testing.T) {
	for _, kind := range schedulerKinds {
		e := NewEngineWithScheduler(kind)
		var order []Cycle
		log := func() { order = append(order, e.Now()) }
		e.At(100, log)
		e.At(100+calendarWindow*4, log) // far future: parks in overflow
		e.Run(300)                      // pops 100; must not commit the window to the far event
		if e.Now() != 300 {
			t.Fatalf("%v: Now = %d after Run(300), want 300", kind, e.Now())
		}
		e.At(350, log) // between the limit and the far-future event
		e.RunAll()
		want := []Cycle{100, 350, 100 + calendarWindow*4}
		if len(order) != len(want) {
			t.Fatalf("%v: executed %v, want %v", kind, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("%v: executed %v, want %v", kind, order, want)
			}
		}
	}
}

// benchScheduler measures the steady-state schedule+dispatch cost of the
// simulator's dominant pattern: short completion delays with a stable
// population of in-flight events.
func benchScheduler(b *testing.B, kind SchedulerKind, farEvery int) {
	e := NewEngineWithScheduler(kind)
	fn := func(uint64) {}
	for i := 0; i < 512; i++ {
		e.ScheduleArg(Cycle(i%48+1), fn, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delay := Cycle(i%48 + 1)
		if farEvery > 0 && i%farEvery == 0 {
			delay = Cycle(i%1500 + calendarWindow)
		}
		e.ScheduleArg(delay, fn, uint64(i))
		e.Step()
	}
}

func BenchmarkSchedulerCalendarShortDelays(b *testing.B) { benchScheduler(b, CalendarQueue, 0) }
func BenchmarkSchedulerHeapShortDelays(b *testing.B)     { benchScheduler(b, BinaryHeap, 0) }
func BenchmarkSchedulerCalendarMixedDelays(b *testing.B) { benchScheduler(b, CalendarQueue, 16) }
func BenchmarkSchedulerHeapMixedDelays(b *testing.B)     { benchScheduler(b, BinaryHeap, 16) }
