package sim

// scheduler is the event-queue contract behind Engine. Implementations must
// order events by (when, seq): FIFO among events scheduled for the same
// cycle. The engine's determinism contract — identical runs execute events
// in identical order — reduces to this property, which the randomized
// differential test in scheduler_test.go checks across implementations.
//
// The engine always runs on the calendar queue (calendar.go): a bucketed
// time wheel whose sliding window covers the short completion delays that
// dominate the simulated systems (vault and LLC accesses of a few tens of
// cycles), giving O(1) amortized schedule/pop, with far-future events
// overflowing to a binary heap. That heap (heap.go) is also the reference
// the differential tests run a whole engine on, through this interface.
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
