// Package cache implements the functional storage model shared by every
// SRAM and DRAM cache in the simulated systems: a set-associative array of
// tagged lines with per-line coherence state and pluggable replacement.
//
// The array is purely functional (no timing); hierarchy levels own an Array
// and add their latency and protocol behaviour on top. This split keeps the
// protocol logic testable without a simulation clock.
//
// One API addresses the storage: the Way-handle methods (Probe,
// ProbeTouch, WayState, TouchWay, SetStateWay, InsertAt, DemoteWay), one
// Probe per access and O(1) mutators after it, plus the line-addressed
// conveniences Contains and Invalidate built on them. The slot word
// follows from the geometry: 8 bytes with an in-word recency stamp, or 4
// bytes for a large direct-mapped array (the paper-scale vaults). A
// randomized differential test (differential_test.go) drives the API on
// both layouts against a line-addressed reference layer, kept in that
// test file, and a naive map-of-sets model.
package cache

import (
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

// Slot-word encoding: each way is one uint64 packing validity, coherence
// state, LRU recency and tag —
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
// 40-bit tag field bounds addresses to 2^46 B, far above the workload
// address map's 2^42 ceiling (internal/workload); place() enforces it.
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
	maxSlotTag     = 1<<(64-slotTagShift) - 1
)

// A direct-mapped array of at least dmMinSets sets stores one uint32 per
// set instead —
//
//	bit  0      valid
//	bits 1-3    State (the same bits as the 8-byte word)
//	bits 4-31   the tag's bits outside the set index: those above it,
//	            then the bank bits below it (NewBankedArray)
//
// It never reads a recency stamp, and the slot position gives the set
// index back, so the tag needs 40 - log2(sets) bits: at most 28 from
// 4096 sets up, which covers every tag place() admits. Smaller
// direct-mapped arrays keep the 8-byte word, whose tag does not fit.
const (
	dmTagShift = 4
	dmMinSets  = 1 << (64 - slotTagShift - (32 - dmTagShift))
)

func packSlot(t uint64, st State) uint64 { return t<<slotTagShift | uint64(st)<<1 | slotValid }

func slotState(v uint64) State  { return State((v & slotStateMask) >> 1) }
func slotTag(v uint64) uint64   { return v >> slotTagShift }
func slotStamp(v uint64) uint64 { return v >> slotStampShift & slotStampMax }

// Array is a set-associative cache tag/state array.
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
	// wayShift is log2(ways) when ways is a power of two (the hot
	// way-index-to-set-index shift), else -1 and the slow divide is used.
	wayShift int

	// slots holds the packed tag/state/stamp words, sets*ways, set-major;
	// 0 marks an empty slot. Nil when dm holds the array.
	slots []uint64

	// dm holds the 4-byte words of a direct-mapped array of at least
	// dmMinSets sets, one per set (0 = empty); nil otherwise. setBits is
	// log2(sets), the index width the words leave out.
	dm      []uint32
	setBits uint

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

// NewBankedArray builds an array that is one bank of a larger
// address-interleaved cache: the low bankBits of the line index select the
// bank (see BankSelect), so the set index must come from the bits above
// them. Using the same bits for both would fold every line in the bank
// onto a single set and shrink the effective capacity to ways lines.
func NewBankedArray(sizeBytes int64, ways int, policy Policy, bankBits uint) *Array {
	a := NewArray(sizeBytes, ways, policy)
	a.shift = bankBits
	return a
}

// NewArray builds an array of the given total size in bytes. Size must be a
// multiple of ways*mem.LineSize and the resulting set count a power of two.
func NewArray(sizeBytes int64, ways int, policy Policy) *Array {
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
	wayShift := -1
	if ways&(ways-1) == 0 {
		wayShift = ilog2(uint64(ways))
	}
	a := &Array{
		sets:     int(sets),
		ways:     ways,
		policy:   policy,
		lru:      policy == LRU && ways > 1,
		wayShift: wayShift,
		setBits:  uint(ilog2(uint64(sets))),
		rndst:    0x9E3779B97F4A7C15,
	}
	if ways == 1 && sets >= dmMinSets {
		a.dm = make([]uint32, sets)
	} else {
		a.slots = make([]uint64, lines)
	}
	if a.lru {
		a.setTick = make([]uint32, sets)
	}
	if ways > 1 {
		a.hint = make([]uint8, sets)
	}
	return a
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

// packDM builds the 4-byte word for tag t: the set-index bits dropped,
// the bank bits below them kept.
func (a *Array) packDM(t uint64, st State) uint32 {
	kept := t>>(a.shift+a.setBits)<<a.shift | t&(1<<a.shift-1)
	return uint32(kept<<dmTagShift) | uint32(st)<<1 | slotValid
}

// dmLine rebuilds the line address held by word v of set s.
func (a *Array) dmLine(v uint32, s int) mem.LineAddr {
	kept := uint64(v >> dmTagShift)
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
func (a *Array) Probe(line mem.LineAddr) Way {
	t := uint64(line) / mem.LineSize
	s := int(t >> a.shift & uint64(a.sets-1))
	if a.dm != nil {
		if a.dm[s]&^slotStateMask == a.packDM(t, Invalid) {
			return Way(s)
		}
		return NoWay
	}
	base := s * a.ways
	want := t<<slotTagShift | slotValid
	for w, v := range a.slots[base : base+a.ways] {
		if v&^(slotStateMask|slotStampMask) == want {
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
	if a.dm != nil {
		return a.Probe(line) // no hint and no recency to update
	}
	t := uint64(line) / mem.LineSize
	s := int(t >> a.shift & uint64(a.sets-1))
	base := s * a.ways
	want := t<<slotTagShift | slotValid
	if a.hint != nil {
		// Most hits repeat the set's last hit or fill: check that way
		// before scanning (the tag compare makes a stale hint harmless).
		if w := base + int(a.hint[s]); a.slots[w]&^(slotStateMask|slotStampMask) == want {
			if a.lru {
				c := uint64(a.setTick[s]) + 1
				if c > slotStampMax {
					c = a.renormSet(base) + 1
				}
				a.setTick[s] = uint32(c)
				a.slots[w] = a.slots[w]&^slotStampMask | c<<slotStampShift
			}
			return Way(w)
		}
	}
	for w, v := range a.slots[base : base+a.ways] {
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
				a.slots[idx] = a.slots[idx]&^slotStampMask | c<<slotStampShift
			}
			return Way(idx)
		}
	}
	return NoWay
}

// WayState returns the coherence state of the probed slot.
func (a *Array) WayState(w Way) State {
	if a.dm != nil {
		return slotState(uint64(a.dm[w]))
	}
	return slotState(a.slots[w])
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
	a.slots[w] = a.slots[w]&^slotStampMask | st<<slotStampShift
}

// setIndex returns the set number of the slot holding way w.
func (a *Array) setIndex(w Way) int {
	if a.wayShift >= 0 {
		return int(w) >> a.wayShift
	}
	return int(w) / a.ways
}

// nextStamp advances set s's counter and returns the stamp to write: the
// set's new strict maximum. When the 20-bit field saturates the set is
// renormalized to ranks and the counter rewinds to the new maximum.
func (a *Array) nextStamp(s int) uint64 {
	c := uint64(a.setTick[s]) + 1
	if c > slotStampMax {
		c = a.renormSet(s*a.ways) + 1
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
		old[k] = slotStamp(a.slots[base+k])
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
		a.slots[base+k] = a.slots[base+k]&^slotStampMask | rank<<slotStampShift
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
		if a.dm != nil {
			a.dm[w] = 0
		} else {
			a.slots[w] = 0
		}
		return
	}
	if a.dm != nil {
		a.dm[w] = a.dm[w]&^slotStateMask | uint32(st)<<1
		return
	}
	a.slots[w] = a.slots[w]&^slotStateMask | uint64(st)<<1
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
		a.slots[w] &^= slotStampMask
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
	s := a.set(line)
	victim := -1
	if a.dm != nil {
		if a.dm[s] == 0 {
			victim = 0
		}
	} else {
		base := s * a.ways
		for i, v := range a.slots[base : base+a.ways] {
			if v == 0 {
				victim = i
				break
			}
		}
	}
	return a.place(s, victim, tag(line), st)
}

// place fills the chosen way (or the policy victim when victim < 0) and
// maintains occupancy, recency and the eviction report.
func (a *Array) place(s, victim int, t uint64, st State) (w Way, ev Eviction, evicted bool) {
	if t > maxSlotTag {
		panic(fmt.Sprintf("cache: line tag %#x exceeds the %d-bit packed-slot tag field (address beyond 2^46)",
			t, 64-slotTagShift))
	}
	if victim == -1 {
		victim = a.victim(s)
		if a.dm != nil {
			ev = Eviction{Line: a.dmLine(a.dm[s], s), State: slotState(uint64(a.dm[s]))}
		} else {
			v := a.slots[s*a.ways+victim]
			ev = Eviction{Line: lineAddr(slotTag(v)), State: slotState(v)}
		}
		evicted = true
		a.occupied--
	}
	idx := s*a.ways + victim
	a.occupied++
	if a.dm != nil {
		a.dm[idx] = a.packDM(t, st)
		return Way(idx), ev, evicted
	}
	word := packSlot(t, st)
	if a.lru {
		// Direct-mapped and RandomRepl arrays skip recency entirely.
		word |= a.nextStamp(s) << slotStampShift
	}
	if a.hint != nil {
		a.hint[s] = uint8(victim)
	}
	a.slots[idx] = word
	return Way(idx), ev, evicted
}

// victim picks the replacement way in a full set.
func (a *Array) victim(set int) int {
	switch a.policy {
	case LRU:
		if a.ways == 1 {
			return 0
		}
		base := set * a.ways
		best, bestStamp := 0, slotStamp(a.slots[base])
		for w := 1; w < a.ways; w++ {
			if s := slotStamp(a.slots[base+w]); s < bestStamp {
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
	for s, v := range a.dm {
		if v&slotValid != 0 {
			fn(a.dmLine(v, s), slotState(uint64(v)))
		}
	}
	for _, v := range a.slots {
		if v&slotValid != 0 {
			fn(lineAddr(slotTag(v)), slotState(v))
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
