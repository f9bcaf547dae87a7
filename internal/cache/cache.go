// Package cache implements the functional storage model shared by every
// SRAM and DRAM cache in the simulated systems: a set-associative array of
// tagged lines with per-line coherence state and pluggable replacement.
//
// The array is purely functional (no timing); hierarchy levels own an Array
// and add their latency and protocol behaviour on top. This split keeps the
// protocol logic testable without a clock.
//
// One API addresses the storage: the Way-handle methods (Probe,
// ProbeTouch, WayState, TouchWay, SetStateWay, InsertAt, DemoteWay), one
// Probe per access and O(1) mutators after it, plus the line-addressed
// conveniences Contains and Invalidate built on them. The slot follows
// from the geometry: an associative array stores an 8-byte word with an
// in-word recency stamp, and a direct-mapped array packs each slot into
// exactly the bits it needs: the tag bits a line address of the array's
// width (lineBits, NewGroup) keeps outside the set index, plus the state.
// A system derives that width from its sources' address limit
// (workload.Source.AddrLimit, pinned by TestSourceAddrLimit), so the
// 35-bit line addresses of a synthetic 16-core system give Scale-1 vault
// slots of 16 bits. Like-shaped arrays — SILO's per-core vaults —
// can share one set-major slab as a Group, so a line's slots in every
// member are adjacent (Group.Row). A randomized differential test
// (differential_test.go) drives the API on both layouts, lone and
// grouped, against a line-addressed reference layer, kept in that test
// file, and a naive map-of-sets model.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// State is a per-line coherence state. The zero value is Invalid.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: read-only copy, other caches may also hold copies.
	Shared
	// Exclusive: clean, and the only copy in any cache.
	Exclusive
	// Owned: dirty, and this cache must answer requests for the line
	// (MOESI O state; other caches may hold Shared copies).
	Owned
	// Modified: dirty, and the only copy in any cache.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the state denotes a present line.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether the state holds data newer than the next level.
func (s State) Dirty() bool { return s == Modified || s == Owned }

// Policy selects a replacement victim.
type Policy uint8

const (
	// LRU evicts the least recently used way (paper Table II baseline).
	LRU Policy = iota
	// RandomRepl evicts a pseudo-random way.
	RandomRepl
)

// Slot-word encoding of an associative array: each way is one uint64
// packing validity, coherence state, LRU recency and tag —
//
//	bit  0      valid
//	bits 1-3    State
//	bits 4-23   recency stamp (set-local; see nextStamp)
//	bits 24-63  tag (line address / LineSize)
//
// so a tag scan, a state read, a recency touch and a fill each touch
// exactly 8 bytes per way — one cache line for the whole set at the
// simulated 8-way geometries. Folding the stamp into the word (instead of
// the former side slice) removes the second line a hit used to dirty. The
// 40-bit tag field bounds every array's line-address width (MaxLineBits:
// addresses below 2^46 B); InsertAt enforces the array's own width.
//
// Stamps are set-local, drawn from a per-set counter (setTick, a dense
// uint32 per set — 16x smaller than the former per-slot stamp slice and
// shared across 16 sets per cache line). When the 20-bit field saturates,
// the set's stamps are renormalized to ranks and the counter rewinds.
// Renormalization preserves both the relative order of positive stamps
// and the demoted-to-zero class, so victim choice — min (stamp, way) — is
// bit-identical to the former global-tick scheme (the ordering argument
// is spelled out in DESIGN.md §8).
const (
	slotValid      = 1
	slotStateMask  = 0b1110
	slotStampShift = 4
	slotStampBits  = 20
	slotStampMax   = 1<<slotStampBits - 1
	slotStampMask  = uint64(slotStampMax) << slotStampShift
	slotTagShift   = slotStampShift + slotStampBits
	tagBits        = 64 - slotTagShift
)

// MaxLineBits is the widest line address (address / mem.LineSize) an
// array holds: the 8-byte slot word's tag field, so addresses stay below
// 2^46 B.
const MaxLineBits = tagBits

// A direct-mapped array of lineBits-wide line addresses packs each slot
// into exactly width = lineBits - log2(sets) + packedStateBits bits (the
// state alone once lineBits ≤ log2(sets); a banked array keeps its bank
// bits even then), at most MaxLineBits + 3 = 43 —
//
//	bits 0-2    State (Invalid = 0: an empty slot; there is no valid bit)
//	bits 3-     the tag's bits outside the set index: those above it,
//	            then the bank bits below it (NewBankedArray)
//
// It never reads a recency stamp, and the slot position gives the set
// index back. Slot i sits at bits i·width upward of a little-endian byte
// slab, so it may straddle two 64-bit words, but it always lies within
// the 8 bytes from byte i·width/8 (7 + 43 bits < 64): every read and write
// is one unaligned 8-byte load or store. The slab is ceil(slots·width/64)
// words plus one padding word, which keeps those 8 bytes in bounds.
const (
	packedStateBits = 3
	packedStateMask = 1<<packedStateBits - 1
)

func packSlot(t uint64, st State) uint64 { return t<<slotTagShift | uint64(st)<<1 | slotValid }

func slotState(v uint64) State  { return State((v & slotStateMask) >> 1) }
func slotTag(v uint64) uint64   { return v >> slotTagShift }
func slotStamp(v uint64) uint64 { return v >> slotStampShift & slotStampMax }

// packedBytes is the slab length of n packed slots of width bits:
// ceil(n·width/64) words plus the padding word, in bytes.
func packedBytes(n int, width uint) int { return 8 * ((n*int(width)+63)/64 + 1) }

// packedHolds reports whether packed slot v holds the tag of key word kw
// (a packed tag with a zero state): v is kw plus a state in 1..7.
func packedHolds(v, kw uint64) bool { return v-kw-1 < packedStateMask }

// Array is a set-associative cache tag/state array: a lone array, or one
// member of a Group whose slab it shares.
type Array struct {
	sets   int
	ways   int
	policy Policy
	shift  uint   // set-index shift (see NewBankedArray)
	rndst  uint64 // xorshift state for RandomRepl

	// lru is set when the recency stamps in the slot words are live:
	// LRU policy with more than one way. Direct-mapped arrays never read
	// recency, and RandomRepl never consults it, so both skip the stamp
	// maintenance (and its stores) entirely.
	lru bool

	// The slots of every member of the array's group (a lone array is a
	// group of one) live in one slab, set-major: row s is set s of member
	// 0, then of member 1, and so on. n is the group's size and member
	// this array's place in it.
	n, member int

	// The 8-byte layout (associative arrays): slab holds the words. Row s
	// is row = n·ways words, and this member's set s starts at word
	// s·row + off. A Way is a word index. rowShift is log2(row) when row
	// is a power of two (the hot way-to-set shift), else -1 and the slow
	// divide is used.
	slab               []uint64
	row, off, rowShift int

	// The packed layout (direct-mapped arrays; nil packed otherwise):
	// width bits per slot (mask selects them), this member's set s in
	// slot s·n + member, which is its Way. setBits is log2(sets), the
	// index width the slots leave out.
	packed  []byte
	width   uint
	mask    uint64
	setBits uint

	// lineBits bounds the line addresses the array holds: InsertAt
	// panics on a tag of 2^lineBits or more.
	lineBits uint

	// setTick holds each set's stamp counter (nil unless lru): the next
	// touch or fill in the set stamps setTick[s]+1. The counter never
	// trails a live stamp, so every new stamp is the set's strict maximum.
	setTick []uint32

	// hint caches each set's last hit or fill way (nil when ways == 1):
	// ProbeTouch checks it before scanning. A pure accelerator — the full
	// tag compare guards every use, and tags are unique within a set, so
	// a stale hint can only cost the scan it would have skipped.
	hint []uint8

	// Occupancy tracks the number of valid lines, maintained incrementally
	// so invariant checks are O(1).
	occupied int
}

// NewBankedArray builds an array of lineBits-wide line addresses (see
// NewGroup) that is one bank of a larger address-interleaved cache: the
// low bankBits of the line index select the bank (see BankSelect), so the
// set index must come from the bits above them. Using the same bits for
// both would fold every line in the bank onto a single set and shrink the
// effective capacity to ways lines.
func NewBankedArray(sizeBytes int64, ways int, policy Policy, bankBits, lineBits uint) *Array {
	return newGroup(1, sizeBytes, ways, policy, bankBits, lineBits).arrays[0]
}

// NewArray builds an array of the given total size in bytes that holds
// any line address up to MaxLineBits wide. Size must be a multiple of
// ways*mem.LineSize and the resulting set count a power of two.
func NewArray(sizeBytes int64, ways int, policy Policy) *Array {
	return newGroup(1, sizeBytes, ways, policy, 0, MaxLineBits).arrays[0]
}

// MaxGroup bounds a Group's size: Row reports its members as a uint32
// mask.
const MaxGroup = 32

// Group is n like-shaped arrays stored as one set-major matrix: member c's
// set s is slot s·n + c of one slab (ways consecutive words per member in
// the 8-byte layout), so a line's slots in all n members are adjacent —
// one or two host cache lines for SILO's 16 direct-mapped vaults. Each
// member is an ordinary Array with its own occupancy, recency counters
// and way hints. Every member shares the geometry, so a Key derived on
// any member probes every other member.
type Group struct {
	arrays []*Array
}

// NewGroup builds n arrays of the given size, ways and policy (NewArray's
// rules) over one slab. n must lie in [1, MaxGroup]. Every line address
// the members hold is below 2^lineBits lines (lineBits at most
// MaxLineBits); a direct-mapped member's slot keeps only the tag bits
// that bound leaves outside its set index.
func NewGroup(n int, sizeBytes int64, ways int, policy Policy, lineBits uint) *Group {
	return newGroup(n, sizeBytes, ways, policy, 0, lineBits)
}

// newGroup is NewGroup with the set index taken above the low shift bits
// of the line index (NewBankedArray).
func newGroup(n int, sizeBytes int64, ways int, policy Policy, shift, lineBits uint) *Group {
	if n < 1 || n > MaxGroup {
		panic(fmt.Sprintf("cache: group of %d arrays outside [1,%d]", n, MaxGroup))
	}
	if lineBits > MaxLineBits {
		panic(fmt.Sprintf("cache: %d-bit line addresses exceed the %d-bit tag field", lineBits, MaxLineBits))
	}
	if ways <= 0 {
		panic("cache: non-positive ways")
	}
	if sizeBytes%mem.LineSize != 0 {
		panic(fmt.Sprintf("cache: size %d not a multiple of the %dB line size", sizeBytes, mem.LineSize))
	}
	lines := sizeBytes / mem.LineSize
	if lines <= 0 || lines%int64(ways) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible into %d ways of %dB lines", sizeBytes, ways, mem.LineSize))
	}
	sets := lines / int64(ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	setBits := uint(ilog2(uint64(sets)))
	proto := Array{
		sets:     int(sets),
		ways:     ways,
		policy:   policy,
		shift:    shift,
		lru:      policy == LRU && ways > 1,
		n:        n,
		row:      n * ways,
		rowShift: log2Exact(n * ways),
		setBits:  setBits,
		lineBits: lineBits,
		rndst:    0x9E3779B97F4A7C15,
	}
	if ways == 1 {
		// The slot holds the widest tag's kept bits and the state.
		proto.width = uint(bits.Len64(proto.packedTag(1<<lineBits-1) | packedStateMask))
		proto.mask = 1<<proto.width - 1
		proto.packed = make([]byte, packedBytes(n*int(sets), proto.width))
	} else {
		proto.slab = make([]uint64, int64(n)*lines)
	}
	g := &Group{arrays: make([]*Array, n)}
	for c := range g.arrays {
		a := proto
		a.member, a.off = c, c*ways
		if a.lru {
			a.setTick = make([]uint32, sets)
		}
		if ways > 1 {
			a.hint = make([]uint8, sets)
		}
		g.arrays[c] = &a
	}
	return g
}

// log2Exact returns log2(v) for a power of two v, else -1.
func log2Exact(v int) int {
	if v&(v-1) != 0 {
		return -1
	}
	return ilog2(uint64(v))
}

// Arrays returns the members, member c at index c.
func (g *Group) Arrays() []*Array { return g.arrays }

// KeyOf derives line's Key in the members' geometry.
func (g *Group) KeyOf(line mem.LineAddr) Key { return g.arrays[0].KeyOf(line) }

// Row reads set k.set of every member in one pass over the adjacent
// slots: it returns the mask of members holding k's line (bit c: member
// c) and writes each holder's state to st[c], leaving the other entries
// as they were.
func (g *Group) Row(k Key, st *[MaxGroup]State) (mask uint32) {
	a := g.arrays[0]
	if a.packed == nil {
		base := k.set * a.row
		for i, v := range a.slab[base : base+a.row] {
			if v&^(slotStateMask|slotStampMask) == k.word {
				c := i / a.ways
				mask |= 1 << uint(c)
				st[c] = slotState(v)
			}
		}
		return mask
	}
	p, kw, w, m := a.packed, k.word, a.width, a.mask
	hold := func(c int, v uint64) {
		if packedHolds(v, kw) {
			mask |= 1 << (c & (MaxGroup - 1))
			st[c&(MaxGroup-1)] = State(v & packedStateMask)
		}
	}
	o := uint(k.set*a.n) * w
	c := 0
	if 2*w+7 <= 64 {
		// Two slots per 8-byte load.
		for ; c+1 < a.n; c += 2 {
			x := binary.LittleEndian.Uint64(p[o/8:]) >> (o % 8)
			hold(c, x&m)
			hold(c+1, x>>w&m)
			o += 2 * w
		}
	}
	for ; c < a.n; c++ {
		hold(c, binary.LittleEndian.Uint64(p[o/8:])>>(o%8)&m)
		o += w
	}
	return mask
}

// Slot is one valid slot of a group row: the member holding it, its line
// and its state.
type Slot struct {
	Member int
	Line   mem.LineAddr
	State  State
}

// ForEachRow calls fn for every set in which any member holds a line,
// set by set, with the set's valid slots in member order (way order
// within a member), until fn returns false. fn must not mutate the group
// or keep row.
func (g *Group) ForEachRow(fn func(row []Slot) bool) {
	a := g.arrays[0]
	buf := make([]Slot, 0, a.row)
	for s := range a.sets {
		row := buf[:0]
		if a.packed == nil {
			for i, v := range a.slab[s*a.row : (s+1)*a.row] {
				if v&slotValid != 0 {
					row = append(row, Slot{i / a.ways, lineAddr(slotTag(v)), slotState(v)})
				}
			}
		} else {
			for c := range a.n {
				if v := a.get(s*a.n + c); v&packedStateMask != 0 {
					row = append(row, Slot{c, a.packedLine(v, s), State(v & packedStateMask)})
				}
			}
		}
		if len(row) > 0 && !fn(row) {
			return
		}
	}
}

// SizeBytes returns the total capacity.
func (a *Array) SizeBytes() int64 { return int64(a.sets) * int64(a.ways) * mem.LineSize }

// Occupied returns the number of valid lines.
func (a *Array) Occupied() int { return a.occupied }

// tag converts a line address to the stored tag.
func tag(line mem.LineAddr) uint64 { return uint64(line) / mem.LineSize }

// lineAddr converts a stored tag back to a line address.
func lineAddr(t uint64) mem.LineAddr { return mem.LineAddr(t * mem.LineSize) }

// set returns the set index for a line address.
func (a *Array) set(line mem.LineAddr) int {
	return int((tag(line) >> a.shift) & uint64(a.sets-1))
}

// base returns the word index of way 0 of set s in the 8-byte layout.
func (a *Array) base(s int) int { return s*a.row + a.off }

// get reads packed slot i.
func (a *Array) get(i int) uint64 {
	o := uint(i) * a.width
	return binary.LittleEndian.Uint64(a.packed[o/8:]) >> (o % 8) & a.mask
}

// packedTag places tag t in a packed slot with a zero state: the
// set-index bits dropped, the bank bits below them kept.
func (a *Array) packedTag(t uint64) uint64 {
	return (t>>(a.shift+a.setBits)<<a.shift | t&(1<<a.shift-1)) << packedStateBits
}

// packedLine rebuilds the line address held by packed slot v of set s.
func (a *Array) packedLine(v uint64, s int) mem.LineAddr {
	kept := v >> packedStateBits
	return lineAddr(kept>>a.shift<<(a.shift+a.setBits) | uint64(s)<<a.shift | kept&(1<<a.shift-1))
}

// Way is a handle to one array slot, returned by Probe. It stays valid
// until the next mutation of the same set (InsertAt, Invalidate or
// SetStateWay to Invalid); way-indexed mutators let a call site
// that has already probed skip every further tag scan. NoWay reports a
// miss.
type Way int32

// NoWay is the Probe result for an absent line.
const NoWay Way = -1

// Probe finds the line with a single tag scan and returns its slot handle,
// or NoWay when absent. It does not update recency; pair with TouchWay.
func (a *Array) Probe(line mem.LineAddr) Way { return a.ProbeKey(a.KeyOf(line)) }

// Key is a line's set index and its slot with the state (and stamp) bits
// clear, as one geometry stores them. KeyOf derives it once; ProbeKey
// probes any member of the deriving array's group with it, and Group.Row
// all of them, so a caller that reads one line's set in many members —
// the coherence directory reading every vault — derives neither per
// member. A Key carries no member: it is the same whichever member
// derived it.
type Key struct {
	set  int
	word uint64
}

// KeyOf derives line's Key in this array's geometry.
func (a *Array) KeyOf(line mem.LineAddr) (k Key) {
	t := tag(line)
	k.set = int(t >> a.shift & uint64(a.sets-1))
	if a.packed == nil {
		k.word = t<<slotTagShift | slotValid
	} else {
		k.word = a.packedTag(t)
	}
	return k
}

// ProbeKey is Probe for a Key derived on a member of this array's group.
func (a *Array) ProbeKey(k Key) Way {
	if a.packed != nil {
		if i := k.set*a.n + a.member; packedHolds(a.get(i), k.word) {
			return Way(i)
		}
		return NoWay
	}
	base := a.base(k.set)
	for w, v := range a.slab[base : base+a.ways] {
		if v&^(slotStateMask|slotStampMask) == k.word {
			return Way(base + w)
		}
	}
	return NoWay
}

// ProbeTouch finds the line and marks it most recently used in the same
// scan, returning its slot handle or NoWay — the fused form of
// Probe+TouchWay for hit paths that always touch. The stamp update reuses
// the scan's set index and slot word, so a hit costs one pass and (on LRU
// arrays) one counter bump instead of a second probe-and-divide.
func (a *Array) ProbeTouch(line mem.LineAddr) Way {
	if a.packed != nil {
		return a.Probe(line) // no hint and no recency to update
	}
	t := uint64(line) / mem.LineSize
	s := int(t >> a.shift & uint64(a.sets-1))
	base := a.base(s)
	want := t<<slotTagShift | slotValid
	if a.hint != nil {
		// Most hits repeat the set's last hit or fill: check that way
		// before scanning (the tag compare makes a stale hint harmless).
		if w := base + int(a.hint[s]); a.slab[w]&^(slotStateMask|slotStampMask) == want {
			if a.lru {
				c := uint64(a.setTick[s]) + 1
				if c > slotStampMax {
					c = a.renormSet(base) + 1
				}
				a.setTick[s] = uint32(c)
				a.slab[w] = a.slab[w]&^slotStampMask | c<<slotStampShift
			}
			return Way(w)
		}
	}
	for w, v := range a.slab[base : base+a.ways] {
		if v&^(slotStateMask|slotStampMask) == want {
			idx := base + w
			if a.hint != nil {
				a.hint[s] = uint8(w)
			}
			if a.lru {
				c := uint64(a.setTick[s]) + 1
				if c > slotStampMax {
					c = a.renormSet(base) + 1
				}
				a.setTick[s] = uint32(c)
				a.slab[idx] = a.slab[idx]&^slotStampMask | c<<slotStampShift
			}
			return Way(idx)
		}
	}
	return NoWay
}

// WayState returns the coherence state of the probed slot.
func (a *Array) WayState(w Way) State {
	if a.packed != nil {
		return State(a.get(int(w)) & packedStateMask)
	}
	return slotState(a.slab[w])
}

// TouchWay marks the probed slot most recently used. Direct-mapped and
// RandomRepl arrays skip the recency write: their victim choice never
// consults it, so the store would only dirty the set's words per hit.
func (a *Array) TouchWay(w Way) {
	// The guard-plus-outlined-body split keeps TouchWay itself inlinable:
	// direct-mapped and RandomRepl arrays pay one predicted branch and no
	// call at all.
	if a.lru {
		a.stampMRU(w)
	}
}

// stampMRU stamps one slot of an LRU set most recently used.
func (a *Array) stampMRU(w Way) {
	st := a.nextStamp(a.setIndex(w))
	a.slab[w] = a.slab[w]&^slotStampMask | st<<slotStampShift
}

// setIndex returns the set number of the 8-byte-layout slot holding way w.
func (a *Array) setIndex(w Way) int {
	if a.rowShift >= 0 {
		return int(w) >> a.rowShift
	}
	return int(w) / a.row
}

// nextStamp advances set s's counter and returns the stamp to write: the
// set's new strict maximum. When the 20-bit field saturates the set is
// renormalized to ranks and the counter rewinds to the new maximum.
func (a *Array) nextStamp(s int) uint64 {
	c := uint64(a.setTick[s]) + 1
	if c > slotStampMax {
		c = a.renormSet(a.base(s)) + 1
	}
	a.setTick[s] = uint32(c)
	return c
}

// renormSet compresses the set's stamps to ranks when the field saturates,
// returning the new maximum. Positive stamps (unique within a set: each is
// a past max+1) map to 1..m preserving order; zero stamps — the demoted
// class, where victim ties break by lowest way — stay zero, so every
// future victim comparison orders exactly as before the renormalization.
func (a *Array) renormSet(base int) uint64 {
	var buf [64]uint64
	old := buf[:]
	if a.ways > len(buf) {
		old = make([]uint64, a.ways)
	}
	for k := 0; k < a.ways; k++ {
		// Invalid slots are all-zero words, so their stamp reads 0 and they
		// are skipped below.
		old[k] = slotStamp(a.slab[base+k])
	}
	m := uint64(0)
	for k := 0; k < a.ways; k++ {
		s := old[k]
		if s == 0 {
			continue
		}
		rank := uint64(1)
		for j := 0; j < a.ways; j++ {
			if old[j] > 0 && old[j] < s {
				rank++
			}
		}
		a.slab[base+k] = a.slab[base+k]&^slotStampMask | rank<<slotStampShift
		if rank > m {
			m = rank
		}
	}
	return m
}

// SetStateWay updates the coherence state of the probed slot. Setting
// Invalid removes the line (and invalidates every outstanding Way handle
// for its set).
func (a *Array) SetStateWay(w Way, st State) {
	if st == Invalid {
		a.occupied--
	}
	if a.packed != nil {
		// A new state replaces the state bits; Invalid clears the slot.
		drop := uint64(packedStateMask)
		if st == Invalid {
			drop = a.mask
		}
		o := uint(w) * a.width
		b := a.packed[o/8:]
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)&^(drop<<(o%8))|uint64(st)<<(o%8))
		return
	}
	if st == Invalid {
		a.slab[w] = 0
		return
	}
	a.slab[w] = a.slab[w]&^slotStateMask | uint64(st)<<1
}

// DemoteWay moves the probed slot to LRU priority: it becomes the set's
// preferred victim, so streaming fills displace each other rather than
// reused lines. This models the anti-thrash insertion real LLCs apply to
// never-reused streams, and — at the reproduction's capacity scale — it
// reproduces the residency that plain LRU provides at paper scale, where
// set lifetimes are 512x longer relative to reuse intervals. A no-op on
// direct-mapped and RandomRepl arrays, where recency is never consulted.
func (a *Array) DemoteWay(w Way) {
	if a.lru {
		a.slab[w] &^= slotStampMask
	}
}

// Contains reports whether the line is present.
func (a *Array) Contains(line mem.LineAddr) bool { return a.Probe(line) != NoWay }

// Eviction describes a line displaced by InsertAt.
type Eviction struct {
	Line  mem.LineAddr
	State State
}

// Dirty reports whether the victim must be written back.
func (e Eviction) Dirty() bool { return e.State.Dirty() }

// InsertAt is the insert for a line Probe just reported absent: it fills
// the first invalid way (stopping the scan there) or evicts the policy
// victim, returning the way filled for DemoteWay and the eviction
// (evicted=false when an invalid way was used). It does not re-verify
// absence — calling it for a present line corrupts the set, which the
// differential suite would surface; callers must have probed the same
// array for the same line with no intervening mutation.
func (a *Array) InsertAt(line mem.LineAddr, st State) (w Way, ev Eviction, evicted bool) {
	if !st.Valid() {
		panic("cache: inserting invalid state")
	}
	t := tag(line)
	if t>>a.lineBits != 0 {
		panic(fmt.Sprintf("cache: line tag %#x exceeds the array's %d-bit line addresses (address at or beyond 2^%d)",
			t, a.lineBits, a.lineBits+6))
	}
	s := int(t >> a.shift & uint64(a.sets-1))
	if a.packed != nil {
		return a.insertPacked(s, t, st)
	}
	base := a.base(s)
	victim := -1
	for i, v := range a.slab[base : base+a.ways] {
		if v == 0 {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = a.victim(s)
		v := a.slab[base+victim]
		ev, evicted = Eviction{Line: lineAddr(slotTag(v)), State: slotState(v)}, true
		a.occupied--
	}
	a.occupied++
	word := packSlot(t, st)
	if a.lru {
		// RandomRepl arrays skip recency entirely.
		word |= a.nextStamp(s) << slotStampShift
	}
	if a.hint != nil {
		a.hint[s] = uint8(victim)
	}
	a.slab[base+victim] = word
	return Way(base + victim), ev, evicted
}

// insertPacked is InsertAt on the packed slot of set s: one load and one
// store of the 8 bytes holding it.
func (a *Array) insertPacked(s int, t uint64, st State) (w Way, ev Eviction, evicted bool) {
	i := s*a.n + a.member
	o := uint(i) * a.width
	b := a.packed[o/8:]
	x := binary.LittleEndian.Uint64(b)
	if v := x >> (o % 8) & a.mask; v&packedStateMask != 0 {
		a.victim(s) // advances a RandomRepl state; the one way is the victim
		ev, evicted = Eviction{Line: a.packedLine(v, s), State: State(v & packedStateMask)}, true
	} else {
		a.occupied++
	}
	binary.LittleEndian.PutUint64(b, x&^(a.mask<<(o%8))|(a.packedTag(t)|uint64(st))<<(o%8))
	return Way(i), ev, evicted
}

// victim picks the replacement way in a full set.
func (a *Array) victim(set int) int {
	switch a.policy {
	case LRU:
		if a.ways == 1 {
			return 0
		}
		base := a.base(set)
		best, bestStamp := 0, slotStamp(a.slab[base])
		for w := 1; w < a.ways; w++ {
			if s := slotStamp(a.slab[base+w]); s < bestStamp {
				best, bestStamp = w, s
			}
		}
		return best
	case RandomRepl:
		a.rndst ^= a.rndst << 13
		a.rndst ^= a.rndst >> 7
		a.rndst ^= a.rndst << 17
		return int(a.rndst % uint64(a.ways))
	default:
		panic(fmt.Sprintf("cache: unknown policy %d", a.policy))
	}
}

// Invalidate removes the line, returning its prior state (Invalid when it
// was not present).
func (a *Array) Invalidate(line mem.LineAddr) State {
	w := a.Probe(line)
	if w == NoWay {
		return Invalid
	}
	st := a.WayState(w)
	a.SetStateWay(w, Invalid)
	return st
}

// ForEach calls fn for every valid line. Iteration order is deterministic
// (set-major). fn must not mutate the array.
func (a *Array) ForEach(fn func(line mem.LineAddr, st State)) {
	for s := range a.sets {
		if a.packed != nil {
			if v := a.get(s*a.n + a.member); v&packedStateMask != 0 {
				fn(a.packedLine(v, s), State(v&packedStateMask))
			}
			continue
		}
		base := a.base(s)
		for _, v := range a.slab[base : base+a.ways] {
			if v&slotValid != 0 {
				fn(lineAddr(slotTag(v)), slotState(v))
			}
		}
	}
}

// BankSelect address-interleaves lines across banks: consecutive lines map
// to consecutive banks (paper: S-NUCA address interleaving). banks must be
// a power of two.
func BankSelect(line mem.LineAddr, banks int) int {
	if banks <= 0 || banks&(banks-1) != 0 {
		panic(fmt.Sprintf("cache: bank count %d not a power of two", banks))
	}
	return int(tag(line) & uint64(banks-1))
}

// ilog2 returns floor(log2(v)); used by sizing helpers.
func ilog2(v uint64) int { return 63 - bits.LeadingZeros64(v) }
