package coherence

import "repro/internal/mem"

// mapStore is the reference lineStore the differential tests compare the
// production tables against: a Go map of boxed values (boxing gives ref
// a stable pointer; reference-path performance is irrelevant). Its
// bytesPerSlot is 0: the runtime manages its layout.
type mapStore[V any] map[mem.LineAddr]*V

func (m mapStore[V]) get(line mem.LineAddr) (V, bool) {
	if p, ok := m[line]; ok {
		return *p, true
	}
	var zero V
	return zero, false
}

func (m mapStore[V]) ref(line mem.LineAddr) *V { return m[line] }
func (m mapStore[V]) sync()                    {} // refs mutate the boxed value directly
func (m mapStore[V]) bytesPerSlot() int        { return 0 }

func (m mapStore[V]) put(line mem.LineAddr, v V) {
	if p, ok := m[line]; ok {
		*p = v
		return
	}
	m[line] = &v
}

func (m mapStore[V]) del(line mem.LineAddr) { delete(m, line) }
func (m mapStore[V]) size() int             { return len(m) }
func (m mapStore[V]) reserve(int)           {}
func (m mapStore[V]) forEach(fn func(mem.LineAddr, V)) {
	for line, p := range m {
		fn(line, *p)
	}
}

// newMapSnoopFilter builds a snoop filter on the map reference.
func newMapSnoopFilter(cores int) *SnoopFilter {
	f := NewSnoopFilter(cores, 35)
	f.entries = hotStore[l1entry]{lineStore: mapStore[l1entry]{}}
	return f
}

// newMapLineDirectory builds the line-table oracle on the map reference.
func newMapLineDirectory(cores int, protocol Protocol) *lineDirectory {
	d := newLineDirectory(cores, protocol, OpenTable)
	d.entries = hotStore[entry]{lineStore: mapStore[entry]{}}
	return d
}
