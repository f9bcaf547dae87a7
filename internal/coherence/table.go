package coherence

import (
	"fmt"

	"repro/internal/mem"
)

// lineStore is the per-line state storage both coherence substrates sit
// on: a map from line address to an inline value. Three implementations
// exist — quotTable (the default fast path: quotient-key-compressed
// 8 B/slot open addressing, quot.go), openTable (the full-key 16 B/slot
// table, also the fallback above quotTable's core-count budget) and
// mapStore (the reference: a plain Go map) — and randomized differential
// tests (differential_test.go) prove a SnoopFilter or Directory built on
// any of them returns identical results and stats for every operation.
// Iteration order of forEach is unspecified for all three, and no
// simulation result may depend on it (the determinism contract,
// DESIGN.md §7 and §8).
type lineStore[V lineValue[V]] interface {
	// get returns the value for the line and whether it is present.
	get(line mem.LineAddr) (V, bool)
	// ref returns a pointer to the line's value for mutation, or nil when
	// absent — one probe for the get-modify-write pattern where get+put
	// would pay two. Mutations land in the store once sync is called
	// (compressed stores hand out an unpacked scratch copy; the others
	// point straight at live storage and their sync is a no-op). The
	// pointer and the pending sync are valid only until the next put/del.
	ref(line mem.LineAddr) *V
	// sync writes back the value last obtained from ref. Calling it with
	// no ref outstanding is undefined; callers pair every mutating ref
	// with exactly one sync (or a del of the same line).
	sync()
	// put inserts or overwrites the value for the line.
	put(line mem.LineAddr, v V)
	// del removes the line; absent lines are a no-op.
	del(line mem.LineAddr)
	// size returns the number of stored lines.
	size() int
	// bytesPerSlot reports the inline bytes one table slot occupies (0 for
	// the map reference, whose layout is runtime-managed).
	bytesPerSlot() int
	// forEach visits every stored line in unspecified order. fn must not
	// mutate the store.
	forEach(fn func(line mem.LineAddr, v V))
}

// StoreKind selects a lineStore implementation when constructing a
// SnoopFilter or Directory.
type StoreKind uint8

const (
	// OpenTable is the full-key open-addressed table (table.go).
	OpenTable StoreKind = iota
	// MapStore is the Go-map reference implementation.
	MapStore
	// QuotTable is the quotient-key-compressed table (quot.go): 8 B/slot,
	// supporting up to quotMaxCores cores.
	QuotTable
)

func (k StoreKind) String() string {
	switch k {
	case MapStore:
		return "map"
	case QuotTable:
		return "quot-table"
	default:
		return "open-table"
	}
}

// DefaultStore returns the store kind the default constructors use: the
// quotient-compressed table where its sharer-mask budget allows, else the
// full-key open table.
func DefaultStore(cores int) StoreKind {
	if cores <= quotMaxCores {
		return QuotTable
	}
	return OpenTable
}

func newLineStore[V lineValue[V]](kind StoreKind) lineStore[V] {
	switch kind {
	case OpenTable:
		return newOpenTable[V]()
	case MapStore:
		return mapStore[V]{}
	case QuotTable:
		return newQuotTable[V]()
	default:
		panic(fmt.Sprintf("coherence: unknown store kind %d", kind))
	}
}

// hotStore pairs the lineStore interface with a devirtualized fast path:
// when the store is the quotient or open table, hot operations call it
// directly (avoiding the interface dispatch the Go compiler cannot inline
// through); the interface remains the contract and the map reference's
// entry point.
type hotStore[V lineValue[V]] struct {
	lineStore[V]
	fastQ *quotTable[V] // non-nil iff lineStore is the quotient table
	fast  *openTable[V] // non-nil iff lineStore is the open table
}

func newHotStore[V lineValue[V]](kind StoreKind) hotStore[V] {
	s := newLineStore[V](kind)
	fast, _ := s.(*openTable[V])
	fastQ, _ := s.(*quotTable[V])
	return hotStore[V]{lineStore: s, fast: fast, fastQ: fastQ}
}

func (h hotStore[V]) get(line mem.LineAddr) (V, bool) {
	if h.fastQ != nil {
		return h.fastQ.get(line)
	}
	if h.fast != nil {
		return h.fast.get(line)
	}
	return h.lineStore.get(line)
}

func (h hotStore[V]) ref(line mem.LineAddr) *V {
	if h.fastQ != nil {
		return h.fastQ.ref(line)
	}
	if h.fast != nil {
		return h.fast.ref(line)
	}
	return h.lineStore.ref(line)
}

func (h hotStore[V]) sync() {
	if h.fastQ != nil {
		h.fastQ.sync()
		return
	}
	if h.fast != nil {
		return // open-table refs mutate live storage directly
	}
	h.lineStore.sync()
}

func (h hotStore[V]) put(line mem.LineAddr, v V) {
	if h.fastQ != nil {
		h.fastQ.put(line, v)
		return
	}
	if h.fast != nil {
		h.fast.put(line, v)
		return
	}
	h.lineStore.put(line, v)
}

func (h hotStore[V]) del(line mem.LineAddr) {
	if h.fastQ != nil {
		h.fastQ.del(line)
		return
	}
	if h.fast != nil {
		h.fast.del(line)
		return
	}
	h.lineStore.del(line)
}

// mapStore is the reference lineStore: a Go map of boxed values (boxing
// gives ref a stable pointer; reference-path performance is irrelevant).
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
func (m mapStore[V]) forEach(fn func(mem.LineAddr, V)) {
	for line, p := range m {
		fn(line, *p)
	}
}

// openTable is the fast lineStore: an open-addressed hash table with
// power-of-two capacity, linear probing, inline entries and backward-shift
// deletion (no tombstones in the live table, so probe chains never
// degrade). Growth is incremental: when the load factor would pass 3/4 a
// table of twice the size is allocated and the entries of the previous
// one migrate in bounded chunks on subsequent mutations, so no single
// operation pays a full rehash.
//
// During a drain the previous table is frozen for inserts; deletions and
// migrations mark its slots with a tombstone key (probe chains in it must
// survive until fully drained), while the live table backward-shifts as
// usual. Lookups consult the live table first, then the draining one.
type openTable[V any] struct {
	slots []slot[V]
	mask  uint64 // len(slots)-1
	n     int    // live entries in slots

	// Pre-growth table still draining into slots.
	old     []slot[V]
	oldMask uint64
	oldN    int // live entries left in old
	oldPos  int // next old slot to migrate
}

type slot[V any] struct {
	key uint64 // line-address key + 1; 0 = empty, tombstoneKey = deleted
	val V
}

const (
	minTableSlots = 256
	maxLoadNum    = 3 // grow when load would pass 3/4
	maxLoadDen    = 4
	migrateChunk  = 64

	// tombstoneKey marks a deleted/migrated slot of a draining table. Real
	// keys are line addresses (line-size aligned) plus one, so they are
	// ≡ 1 mod mem.LineSize and can never equal it.
	tombstoneKey = ^uint64(0)
)

func newOpenTable[V any]() *openTable[V] {
	return &openTable[V]{
		slots: make([]slot[V], minTableSlots),
		mask:  minTableSlots - 1,
	}
}

// tableKey encodes a line address so that 0 can mark empty slots. Line
// addresses are line-size aligned, so +1 never collides or overflows.
func tableKey(line mem.LineAddr) uint64 { return uint64(line) + 1 }

// home is the preferred slot of a key under the given mask: a Fibonacci
// multiplicative hash folds the (stride-heavy) line addresses into the
// table's index bits.
func home(key, mask uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 32 & mask
}

func (t *openTable[V]) size() int         { return t.n + t.oldN }
func (t *openTable[V]) sync()             {} // refs mutate live slots directly
func (t *openTable[V]) bytesPerSlot() int { return 16 }

func (t *openTable[V]) get(line mem.LineAddr) (V, bool) {
	if p := t.ref(line); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

func (t *openTable[V]) ref(line mem.LineAddr) *V {
	k := tableKey(line)
	for i := home(k, t.mask); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.key == k {
			return &s.val
		}
		if s.key == 0 {
			break
		}
	}
	if t.old != nil {
		for i := home(k, t.oldMask); ; i = (i + 1) & t.oldMask {
			s := &t.old[i]
			if s.key == k {
				return &s.val
			}
			if s.key == 0 {
				break
			}
		}
	}
	return nil
}

func (t *openTable[V]) put(line mem.LineAddr, v V) {
	t.migrateSome()
	k := tableKey(line)
	if (t.n+t.oldN+1)*maxLoadDen > len(t.slots)*maxLoadNum {
		// Grow first: it may demote the live table (which can hold k) to
		// the draining one, and the old-copy removal below must see that.
		t.grow()
	}
	if t.old != nil {
		// The key must live in exactly one table: tombstone any old copy.
		t.delOld(k)
	}
	for i := home(k, t.mask); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.key == k {
			s.val = v
			return
		}
		if s.key == 0 {
			s.key = k
			s.val = v
			t.n++
			return
		}
	}
}

func (t *openTable[V]) del(line mem.LineAddr) {
	t.migrateSome()
	k := tableKey(line)
	if t.delLive(k) {
		return
	}
	if t.old != nil {
		t.delOld(k)
	}
}

// delLive removes k from the live table with backward-shift deletion:
// entries after the hole whose probe chain crosses it shift back, so no
// tombstones accumulate. Returns whether k was found.
func (t *openTable[V]) delLive(k uint64) bool {
	mask := t.mask
	i := home(k, mask)
	for ; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == 0 {
			return false
		}
		if s.key == k {
			break
		}
	}
	t.n--
	hole := i
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := &t.slots[j]
		if s.key == 0 {
			break
		}
		// s may shift into the hole iff its home does not lie in the
		// cyclic interval (hole, j] — i.e. probing from its home would
		// have crossed the hole.
		if (j-home(s.key, mask))&mask >= (j-hole)&mask {
			t.slots[hole] = *s
			hole = j
		}
	}
	var zero slot[V]
	t.slots[hole] = zero
	return true
}

// delOld tombstones k in the draining table (its probe chains must keep
// working until the drain completes, so slots are never emptied early).
func (t *openTable[V]) delOld(k uint64) {
	for i := home(k, t.oldMask); ; i = (i + 1) & t.oldMask {
		s := &t.old[i]
		if s.key == 0 {
			return
		}
		if s.key == k {
			var zero V
			s.key = tombstoneKey
			s.val = zero
			t.oldN--
			return
		}
	}
}

// grow starts an incremental doubling. Any previous drain finishes first,
// so at most one old table exists at a time.
func (t *openTable[V]) grow() {
	for t.old != nil {
		t.migrateSome()
	}
	t.old, t.oldMask, t.oldN, t.oldPos = t.slots, t.mask, t.n, 0
	t.slots = make([]slot[V], len(t.old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.n = 0
}

// migrateSome moves a bounded chunk of entries from the draining table
// into the live one. Called from every mutation, it finishes the drain
// long before the next doubling can trigger.
func (t *openTable[V]) migrateSome() {
	if t.old == nil {
		return
	}
	end := t.oldPos + migrateChunk
	if end > len(t.old) {
		end = len(t.old)
	}
	for ; t.oldPos < end; t.oldPos++ {
		s := &t.old[t.oldPos]
		if s.key != 0 && s.key != tombstoneKey {
			t.insertFresh(s.key, s.val)
			s.key = tombstoneKey
			t.oldN--
		}
	}
	if t.oldPos == len(t.old) || t.oldN == 0 {
		t.old, t.oldMask, t.oldN, t.oldPos = nil, 0, 0, 0
	}
}

// insertFresh inserts a key known to be absent from the live table
// (migration only; capacity is guaranteed by the pre-insert growth check,
// which counts draining entries too).
func (t *openTable[V]) insertFresh(k uint64, v V) {
	for i := home(k, t.mask); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.key == 0 {
			s.key = k
			s.val = v
			t.n++
			return
		}
	}
}

func (t *openTable[V]) forEach(fn func(mem.LineAddr, V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.key != 0 {
			fn(mem.LineAddr(s.key-1), s.val)
		}
	}
	if t.old != nil {
		for i := range t.old {
			if s := &t.old[i]; s.key != 0 && s.key != tombstoneKey {
				fn(mem.LineAddr(s.key-1), s.val)
			}
		}
	}
}
