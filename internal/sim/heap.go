package sim

// initialHeapCap pre-sizes the event heap so steady-state simulations
// (hundreds of in-flight events across cores, caches and controllers)
// never grow it during the measured window.
const initialHeapCap = 1024

// eventHeap is a binary min-heap of events ordered by (when, seq). It is
// the reference scheduler implementation and also serves as the calendar
// queue's overflow store for far-future events.
type eventHeap struct {
	evs []event
}

func newEventHeap() *eventHeap {
	return &eventHeap{evs: make([]event, 0, initialHeapCap)}
}

func (h *eventHeap) len() int { return len(h.evs) }

func (h *eventHeap) popLE(limit Cycle) (event, bool) {
	if len(h.evs) == 0 || h.evs[0].when > limit {
		return event{}, false
	}
	return h.pop(), true
}

// push inserts ev, sifting the insertion hole up instead of swapping so
// each level costs one copy.
func (h *eventHeap) push(ev event) {
	h.evs = append(h.evs, ev)
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(ev, h.evs[parent]) {
			break
		}
		h.evs[i] = h.evs[parent]
		i = parent
	}
	h.evs[i] = ev
}

// pop removes and returns the earliest event, sifting the root hole down
// with single copies.
func (h *eventHeap) pop() event {
	top := h.evs[0]
	last := len(h.evs) - 1
	moved := h.evs[last]
	h.evs[last] = event{} // release callback references
	h.evs = h.evs[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := -1
		if l < last && less(h.evs[l], moved) {
			smallest = l
		}
		if r < last && less(h.evs[r], h.evs[l]) && less(h.evs[r], moved) {
			smallest = r
		}
		if smallest < 0 {
			break
		}
		h.evs[i] = h.evs[smallest]
		i = smallest
	}
	h.evs[i] = moved
	return top
}

func less(a, b event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
