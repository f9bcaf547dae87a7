package sim

import "fmt"

// SchedulerKind selects the Engine's event-queue implementation.
type SchedulerKind uint8

const (
	// CalendarQueue is the default scheduler: a bucketed time wheel whose
	// sliding window covers the short completion delays that dominate the
	// simulated systems (vault and LLC accesses of a few tens of cycles),
	// giving O(1) amortized schedule/pop. Far-future events overflow to a
	// binary heap and migrate into the window lazily as it advances.
	CalendarQueue SchedulerKind = iota
	// BinaryHeap is the previous O(log n) scheduler, retained as the
	// reference implementation for differential testing and comparison
	// benchmarks.
	BinaryHeap
)

func (k SchedulerKind) String() string {
	switch k {
	case CalendarQueue:
		return "calendar-queue"
	case BinaryHeap:
		return "binary-heap"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", uint8(k))
	}
}

// scheduler is the event-queue contract behind Engine. Implementations must
// order events by (when, seq): FIFO among events scheduled for the same
// cycle. The engine's determinism contract — identical runs execute events
// in identical order — reduces to this property, which the randomized
// differential test in scheduler_test.go checks across implementations.
//
// Callers only push events with when >= the when of the last popped event
// (the engine enforces "no scheduling in the past"), which lets the
// calendar queue advance its window monotonically.
type scheduler interface {
	push(ev event)
	// popLE removes and returns the earliest event if its cycle is <= limit;
	// ok is false when the queue is empty or the earliest event is later.
	popLE(limit Cycle) (ev event, ok bool)
	len() int
}

func newScheduler(kind SchedulerKind) scheduler {
	switch kind {
	case CalendarQueue:
		return newCalendarQueue()
	case BinaryHeap:
		return newEventHeap()
	default:
		panic(fmt.Sprintf("sim: unknown scheduler kind %d", uint8(kind)))
	}
}
