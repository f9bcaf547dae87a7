// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a monotonically increasing cycle clock and a priority
// queue of events ordered by (cycle, insertion sequence). Ties are broken
// FIFO so that two runs of the same program always execute events in the
// same order: each engine is single-goroutine and reproducible. Distinct
// engines share no state, so independent simulations may run concurrently
// on separate goroutines (see the experiments runner).
//
// The queue behind the engine is pluggable (see SchedulerKind): the default
// is a calendar queue — per-cycle buckets over a sliding window sized to
// the short completion delays that dominate the simulated systems, with an
// overflow heap for far-future events — giving O(1) amortized scheduling;
// the previous binary heap remains available as a reference implementation.
// Both order events identically (asserted by a randomized differential
// test), so the choice affects performance only, never results.
//
// Hot-path notes: events carry either a plain func() or a func(uint64)
// with a pre-bound argument (ScheduleArg/AtArg). The argument form lets
// callers reuse one long-lived callback for many in-flight events instead
// of allocating a fresh closure per event — the dominant allocation source
// in the simulator's inner loop before it was removed.
package sim

import "fmt"

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// maxCycle is the drain limit used when no caller bound applies.
const maxCycle = ^Cycle(0)

// event is a callback scheduled to run at a particular cycle. Exactly one
// of fn and afn is set; afn receives arg, which lets hot callers avoid a
// per-event closure allocation.
type event struct {
	when Cycle
	seq  uint64
	fn   func()
	afn  func(uint64)
	arg  uint64
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now   Cycle
	seq   uint64
	sched scheduler
	nEvts uint64 // total events executed
}

// NewEngine returns an empty engine at cycle 0 using the default
// calendar-queue scheduler.
func NewEngine() *Engine { return &Engine{sched: newCalendarQueue()} }

// NewEngineWithScheduler returns an empty engine using the given event
// queue implementation. Every kind executes events in the identical
// (cycle, insertion seq) order; non-default kinds exist for differential
// testing and performance comparison.
func NewEngineWithScheduler(kind SchedulerKind) *Engine {
	return &Engine{sched: newScheduler(kind)}
}

// scheduler returns the event queue, installing the default for
// zero-value engines.
func (e *Engine) scheduler() scheduler {
	if e.sched == nil {
		e.sched = newCalendarQueue()
	}
	return e.sched
}

// Now reports the current simulation cycle.
func (e *Engine) Now() Cycle { return e.now }

// Executed reports the total number of events executed so far.
func (e *Engine) Executed() uint64 { return e.nEvts }

// Pending reports the number of scheduled but not yet executed events.
func (e *Engine) Pending() int { return e.scheduler().len() }

// Schedule runs fn delay cycles from now. A delay of 0 runs fn after all
// events already scheduled for the current cycle.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.At(e.now+delay, fn)
}

// At runs fn at the given absolute cycle, which must not be in the past.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", when, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.seq++
	e.scheduler().push(event{when: when, seq: e.seq, fn: fn})
}

// ScheduleArg runs fn(arg) delay cycles from now. Because fn is typically
// a long-lived callback bound once per component, scheduling this way
// performs no allocation beyond the queue slot.
func (e *Engine) ScheduleArg(delay Cycle, fn func(uint64), arg uint64) {
	e.AtArg(e.now+delay, fn, arg)
}

// AtArg runs fn(arg) at the given absolute cycle, which must not be in the
// past.
func (e *Engine) AtArg(when Cycle, fn func(uint64), arg uint64) {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", when, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e.seq++
	e.scheduler().push(event{when: when, seq: e.seq, afn: fn, arg: arg})
}

// dispatch advances the clock to ev and runs its callback.
func (e *Engine) dispatch(ev event) {
	e.now = ev.when
	e.nEvts++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.afn(ev.arg)
	}
}

// Step executes the next pending event, advancing the clock to its cycle.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	ev, ok := e.scheduler().popLE(maxCycle)
	if !ok {
		return false
	}
	e.dispatch(ev)
	return true
}

// Run executes events until the queue drains or the clock would pass limit.
// Events scheduled exactly at limit are executed. It returns the number of
// events executed by this call. The drain loop pops directly rather than
// going through Step so the per-event cost is one bounded queue pop plus
// the callback.
func (e *Engine) Run(limit Cycle) uint64 {
	s := e.scheduler()
	start := e.nEvts
	for {
		ev, ok := s.popLE(limit)
		if !ok {
			break
		}
		e.dispatch(ev)
	}
	if e.now < limit {
		e.now = limit
	}
	return e.nEvts - start
}

// RunAll executes events until the queue is drained.
func (e *Engine) RunAll() uint64 {
	s := e.scheduler()
	start := e.nEvts
	for {
		ev, ok := s.popLE(maxCycle)
		if !ok {
			break
		}
		e.dispatch(ev)
	}
	return e.nEvts - start
}
