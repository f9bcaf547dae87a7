// Package workload synthesizes the memory behaviour of the paper's
// workloads (Table IV scale-out and enterprise applications, Table V
// SPEC'06 mixes). The real applications run under a full OS on a
// full-system simulator; here each workload is a deterministic stochastic
// stream generator whose parameters are calibrated to the paper's published
// characterization:
//
//   - working-set structure (Fig 1 capacity sensitivity): a primary per-core
//     set that lives in the L1, a secondary per-core set whose fit in the
//     LLC determines capacity sensitivity, and a cold stream that always
//     misses;
//   - latency sensitivity (Fig 2): low memory-level parallelism exposes
//     L1-miss latency to the core, controlled by MLP and IndepProb;
//   - sharing behaviour (Figs 3-4): a small read-write shared pool accessed
//     by all cores, plus read-only instruction sharing and a probability of
//     touching another core's secondary slice;
//   - instruction footprints large enough to miss in the L1-I, the classic
//     scale-out frontend bottleneck.
//
// Scale note: all LLC-level footprints below are expressed at paper scale
// and divided by the configured capacity scale (see internal/core) before
// address generation, together with the cache capacities themselves, so
// capacity ratios — and therefore hit rates — are preserved while keeping
// warm-up tractable.
package workload

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Class groups workloads the way the paper's evaluation sections do.
type Class uint8

const (
	// ScaleOut workloads are the CloudSuite-derived primary targets.
	ScaleOut Class = iota
	// Enterprise workloads are the traditional server applications.
	Enterprise
	// Batch workloads are the SPEC CPU2006 components of Table V mixes.
	Batch
)

func (c Class) String() string {
	switch c {
	case ScaleOut:
		return "scale-out"
	case Enterprise:
		return "enterprise"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Spec parameterizes one workload's synthetic stream. All sizes are bytes
// at paper scale; footprints marked "per core" are private to each core.
type Spec struct {
	Name  string
	Class Class

	// Instruction stream: a shared (read-only) code footprint. The PC walks
	// sequentially and jumps to a random function every JumpEveryLines
	// cache lines, modelling the large instruction working sets of server
	// software.
	InstrFootprint int64
	JumpEveryLines int

	// MemRatio is the fraction of instructions that access data memory;
	// StoreFrac the fraction of those that are stores.
	MemRatio  float64
	StoreFrac float64

	// Data regions. Fractions are of data accesses; the remainder after
	// Primary+Middle+Secondary+RWShared is the cold stream.
	PrimaryWSS  int64 // per core; sized to (mostly) fit the L1-D
	PrimaryFrac float64
	// The middle set misses the L1 but fits even the small shared LLC;
	// it is what makes every workload sensitive to LLC *latency*
	// regardless of capacity (paper Fig 2).
	MiddleWSS     int64
	MiddleFrac    float64
	SecondaryWSS  int64 // per core; the LLC-capacity-sensitive set
	SecondaryFrac float64
	ScanFrac      float64 // of secondary accesses that follow a circular scan
	RemoteProb    float64 // chance a secondary access touches another core's slice

	// Read-write sharing (Figs 3-4): a global pool touched by all cores.
	RWSharedFrac    float64
	SharedPool      int64
	SharedWriteFrac float64

	// Core behaviour: MLP bounds outstanding L1-D misses; IndepProb is the
	// chance a miss is independent of the previous instruction (can
	// overlap). Server workloads have low MLP (paper Sec. II-B).
	MLP       int
	IndepProb float64
}

// Check reports the first internal inconsistency as an error naming the
// offending field, or nil. Beyond structural checks (footprints, MLP),
// every fraction field is held to its domain and the data-region
// fractions must sum to at most 1 — historically only the sum was
// checked, so a preset or spec file with, say, a negative MiddleFrac or
// a StoreFrac of 1.3 silently skewed the generated stream (the
// threshold comparisons clamp rather than fail). Spec files arriving
// from disk (internal/scenario) go through Check and surface the error;
// compiled-in presets go through Validate and fail loudly.
func (s *Spec) Check() error {
	if s.Name == "" {
		return fmt.Errorf("workload: unnamed spec")
	}
	if s.InstrFootprint < mem.LineSize {
		return fmt.Errorf("workload %s: InstrFootprint %d below one line", s.Name, s.InstrFootprint)
	}
	if s.JumpEveryLines <= 0 {
		return fmt.Errorf("workload %s: JumpEveryLines %d must be positive", s.Name, s.JumpEveryLines)
	}
	if s.MemRatio <= 0 || s.MemRatio >= 1 {
		return fmt.Errorf("workload %s: MemRatio %v outside (0,1)", s.Name, s.MemRatio)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"StoreFrac", s.StoreFrac},
		{"PrimaryFrac", s.PrimaryFrac},
		{"MiddleFrac", s.MiddleFrac},
		{"SecondaryFrac", s.SecondaryFrac},
		{"ScanFrac", s.ScanFrac},
		{"RemoteProb", s.RemoteProb},
		{"RWSharedFrac", s.RWSharedFrac},
		{"SharedWriteFrac", s.SharedWriteFrac},
		{"IndepProb", s.IndepProb},
	} {
		if f.v < 0 || f.v > 1 || f.v != f.v {
			return fmt.Errorf("workload %s: %s %v outside [0,1]", s.Name, f.name, f.v)
		}
	}
	sum := s.PrimaryFrac + s.MiddleFrac + s.SecondaryFrac + s.RWSharedFrac
	if sum > 1+1e-9 {
		return fmt.Errorf("workload %s: data fractions sum to %v > 1", s.Name, sum)
	}
	if s.PrimaryWSS < mem.LineSize || s.SecondaryWSS < mem.LineSize {
		return fmt.Errorf("workload %s: degenerate working sets (primary %d, secondary %d)", s.Name, s.PrimaryWSS, s.SecondaryWSS)
	}
	if s.MiddleFrac > 0 && s.MiddleWSS < mem.LineSize {
		return fmt.Errorf("workload %s: middle accesses without a middle set", s.Name)
	}
	if s.RWSharedFrac > 0 && s.SharedPool < mem.LineSize {
		return fmt.Errorf("workload %s: shared accesses without a pool", s.Name)
	}
	if s.MLP <= 0 {
		return fmt.Errorf("workload %s: MLP %d must be positive", s.Name, s.MLP)
	}
	return nil
}

// Validate panics when the spec is internally inconsistent; it is called by
// stream constructors so broken presets fail loudly.
func (s *Spec) Validate() {
	if err := s.Check(); err != nil {
		panic(err.Error())
	}
}

// Op is one instruction produced by a stream, packed into two words so a
// pre-generated batch costs its consumer two loads per op and fills half
// the cache lines a field-per-flag struct did. IWord carries the
// instruction side (line addresses are 64-aligned, so bit 0 is free for
// the jump flag); DWord carries the data side (addresses stay below 2^56
// — every source's AddrLimit lies far below it, TestSourceAddrLimit —
// leaving the top byte for flags, and a non-memory op is all-zero). The
// generator always writes both words, so an op never carries stale state
// from a previous one.
// Read through the accessor methods below.
type Op struct {
	// IWord is the new instruction-fetch line with bit 0 carrying the jump
	// flag; 0 = the op does not enter a new instruction line.
	IWord uint64
	// DWord is the data address (bits 0-55) with the opMem..opNonTemporal
	// flags above; 0 = the op is not a memory access.
	DWord uint64
}

// DWord flag bits and the address field they sit above.
const (
	opMem         = uint64(1) << 63
	opWrite       = uint64(1) << 62
	opRWShared    = uint64(1) << 61
	opIndependent = uint64(1) << 60
	opNonTemporal = uint64(1) << 59
	opAddrMask    = uint64(1)<<56 - 1
)

// NewIFetchLine is non-zero when this instruction enters a new
// instruction cache line.
func (o Op) NewIFetchLine() mem.LineAddr { return mem.LineAddr(o.IWord &^ 1) }

// Jump marks a non-sequential control transfer (the sequential case is
// covered by the next-line prefetcher).
func (o Op) Jump() bool { return o.IWord&1 != 0 }

// IsMem marks a data access with the fields below.
func (o Op) IsMem() bool { return o.DWord != 0 }

// Addr is the accessed byte address (meaningful only when IsMem).
func (o Op) Addr() mem.Addr { return mem.Addr(o.DWord & opAddrMask) }

// Write marks a store.
func (o Op) Write() bool { return o.DWord&opWrite != 0 }

// RWShared marks an access to the global read-write shared pool.
func (o Op) RWShared() bool { return o.DWord&opRWShared != 0 }

// Independent marks a miss the core may overlap (not dependent on the
// previous instruction).
func (o Op) Independent() bool { return o.DWord&opIndependent != 0 }

// NonTemporal marks never-reused streaming accesses; caches insert their
// fills at LRU priority (see cache.Array.DemoteWay).
func (o Op) NonTemporal() bool { return o.DWord&opNonTemporal != 0 }

// Address-map region bases. Regions are separated in the high bits so no
// workload region ever aliases another. Bases and per-core strides carry
// line-aligned odd "salts": purely power-of-two spacing would make every
// region and every core's slice collapse onto the same low cache sets
// (set index = line mod sets), thrashing direct-mapped structures in a way
// no real memory layout does.
const (
	instrBase   = mem.Addr(0x01_0000_0000 + 64*11)
	primaryBase = mem.Addr(0x02_0000_0000 + 64*17041)
	middleBase  = mem.Addr(0x04_0000_0000 + 64*26227)
	sharedBase  = mem.Addr(0x08_0000_0000 + 64*33749)
	secBase     = mem.Addr(0x10_0000_0000 + 64*49999)
	coldBase    = mem.Addr(0x80_0000_0000 + 64*3163)

	primaryStride = 1<<26 + 64*10007  // per-core spacing of primary slices
	middleStride  = 1<<27 + 64*23039  // per-core spacing of middle slices
	secStride     = 1<<32 + 64*101117 // per-core spacing of secondary slices
	coldStride    = 1<<36 + 64*51511  // per-core spacing of cold streams
)

// Stream generates a core's instruction/memory trace deterministically.
type Stream struct {
	spec   Spec
	core   int
	ncores int
	scale  int64 // capacity scale divisor (1 = paper scale)
	rng    *sim.RNG

	// Scaled footprints (bytes).
	instrFP, primary, middle, secondary, sharedPool, coldRegion int64

	// Precomputed sim.Threshold comparands for every probability the hot
	// loop tests (compared against one rng.Raw53 draw; bit-identical to
	// the Float64 comparisons they replace — see sim.RNG.Raw53).
	th struct {
		mem, jump, hotJump             float64
		primary, middle, secondary, rw float64 // cumulative region splits
		store, sharedWrite             float64
		scan, remote                   float64
		indep, indepMiddle, indepSec   float64
		indepShared, indepCold         float64
	}

	// Precomputed sim.Divisor reciprocals for every bounded draw in the
	// hot loop (exact n%d without a hardware divide), plus the hot-jump
	// span they parameterize.
	instrDiv, hotDiv, primaryDiv, middleDiv sim.Divisor
	secondaryDiv, sharedDiv, coldDiv        sim.Divisor
	remoteDiv                               sim.Divisor // over ncores-1 peers
	hotSpan                                 uint64

	pc         mem.Addr // next instruction address
	lastILine  mem.LineAddr
	havePC     bool
	jumped     bool // the last line transition was a taken branch
	scanCursor int64
	coldCursor int64
	generated  uint64 // ops produced by NextBatch
}

// NewStream builds the deterministic stream for one core. scale divides
// every footprint — instruction, primary, middle, secondary, shared —
// mirroring the capacity scaling of the simulated caches (including the
// L1s), so every footprint:capacity ratio matches paper scale. seed
// selects the run.
func NewStream(spec Spec, core, ncores int, scale int64, seed uint64) *Stream {
	spec.Validate()
	if core < 0 || core >= ncores {
		panic(fmt.Sprintf("workload: core %d outside [0,%d)", core, ncores))
	}
	if scale <= 0 {
		panic("workload: non-positive scale")
	}
	st := &Stream{
		core:   core,
		ncores: ncores,
		scale:  scale,
		rng:    sim.NewRNG(seed).Fork(uint64(core) + 1),
	}
	st.retune(spec)
	// Stagger scan cursors so cores do not move in lockstep.
	st.scanCursor = (st.secondary / int64(ncores)) * int64(core)
	st.pc = instrBase + mem.Addr(st.rng.Uint64n(uint64(st.instrFP)))&^(mem.LineSize-1)
	return st
}

// retune installs spec's derived parameters — scaled footprints,
// probability thresholds, divisor reciprocals — leaving the mutable
// walk state (rng, pc, cursors, generated) untouched. It is the shared
// tail of NewStream and Retune; the comments inside predate the split
// and still describe the draw-identity contract.
func (st *Stream) retune(spec Spec) {
	scaled := func(v int64) int64 {
		s := v / st.scale
		if s < mem.LineSize {
			s = mem.LineSize
		}
		// Round down to a whole number of lines.
		return s &^ (mem.LineSize - 1)
	}
	st.spec = spec
	st.instrFP = scaled(spec.InstrFootprint)
	st.primary = scaled(spec.PrimaryWSS)
	st.secondary = scaled(spec.SecondaryWSS)
	st.middle = 0
	if spec.MiddleFrac > 0 {
		st.middle = scaled(spec.MiddleWSS)
	}
	st.coldRegion = scaled(coldRegionBytes)
	st.sharedPool = 0
	if spec.RWSharedFrac > 0 {
		st.sharedPool = scaled(spec.SharedPool)
	}

	// The cumulative region splits reproduce nextData's historical
	// `r < f1+f2+…` sums term for term, so the float rounding — and hence
	// every region decision — is unchanged.
	st.th.mem = sim.Threshold(spec.MemRatio)
	st.th.jump = sim.Threshold(1 / float64(spec.JumpEveryLines))
	st.th.hotJump = sim.Threshold(hotJumpProb)
	st.th.primary = sim.Threshold(spec.PrimaryFrac)
	st.th.middle = sim.Threshold(spec.PrimaryFrac + spec.MiddleFrac)
	st.th.secondary = sim.Threshold(spec.PrimaryFrac + spec.MiddleFrac + spec.SecondaryFrac)
	st.th.rw = sim.Threshold(spec.PrimaryFrac + spec.MiddleFrac + spec.SecondaryFrac + spec.RWSharedFrac)
	st.th.store = sim.Threshold(spec.StoreFrac)
	st.th.sharedWrite = sim.Threshold(spec.SharedWriteFrac)
	st.th.scan = sim.Threshold(spec.ScanFrac)
	st.th.remote = sim.Threshold(spec.RemoteProb)
	st.th.indep = sim.Threshold(spec.IndepProb)
	st.th.indepMiddle = sim.Threshold(scaledProb(spec.IndepProb, middleIndepScale))
	st.th.indepSec = sim.Threshold(scaledProb(spec.IndepProb, secondaryIndepScale))
	st.th.indepShared = sim.Threshold(scaledProb(spec.IndepProb, sharedIndepScale))
	st.th.indepCold = sim.Threshold(scaledProb(spec.IndepProb, coldIndepScale))

	st.instrDiv = sim.NewDivisor(uint64(st.instrFP))
	st.hotSpan = uint64(float64(st.instrFP) * hotInstrFrac)
	if st.hotSpan >= mem.LineSize {
		st.hotDiv = sim.NewDivisor(st.hotSpan)
	}
	st.primaryDiv = sim.NewDivisor(uint64(st.primary))
	if st.middle > 0 {
		st.middleDiv = sim.NewDivisor(uint64(st.middle))
	}
	st.secondaryDiv = sim.NewDivisor(uint64(st.secondary))
	if st.sharedPool > 0 {
		st.sharedDiv = sim.NewDivisor(uint64(st.sharedPool))
	}
	st.coldDiv = sim.NewDivisor(uint64(st.coldRegion))
	if st.ncores > 1 {
		st.remoteDiv = sim.NewDivisor(uint64(st.ncores - 1))
	}
}

// Retune re-parameterizes a live stream to a new spec — the phased-
// scenario seam (DESIGN.md §14): a Phased wrapper switches its inner
// stream's behaviour at deterministic op counts by swapping the derived
// parameters while the walk state (RNG, PC, cursors, generation count)
// carries over, the way a real application's phase change keeps its
// code and data in place. Cursors that the new footprints leave out of
// range are wrapped back in; the PC is clamped the same way so the
// instruction walk stays inside the (possibly smaller) code footprint.
func (st *Stream) Retune(spec Spec) {
	spec.Validate()
	st.retune(spec)
	if st.scanCursor >= st.secondary {
		st.scanCursor %= st.secondary
	}
	if off := int64(st.pc - instrBase); off < 0 || off >= st.instrFP {
		st.pc = instrBase + mem.Addr(off%st.instrFP)&^(mem.LineSize-1)
	}
}

// Spec returns the stream's workload spec.
func (s *Stream) Spec() Spec { return s.spec }

// Generated reports how many ops the stream has produced into NextBatch
// buffers. A batching consumer (cpu.Core) may hold up to one batch of
// generated-but-not-yet-executed ops, so Generated can run ahead of
// execution by at most the batch size; tests cross-check the core's
// Consumed counter (every op taken from the batch retires) rather than
// this count.
func (s *Stream) Generated() uint64 { return s.generated }

// NextBatch fills dst with the next len(dst) ops of the stream and returns
// how many it produced (always len(dst); the stream never ends). Both
// packed words of every op are written, so no stale state survives a
// reused buffer. gen is the single generator, called once per op in
// order, so the ops and the RNG draw sequence are the same for any split
// of a run into batches, one op at a time included (the determinism
// contract, DESIGN.md §8; TestNextBatchMatchesNext proves it directly).
// Batching exists for the consumer's sake: the RNG state crosses memory
// once per refill instead of once per op (see gen's state threading),
// and the generator's threshold state stays hot instead of interleaving
// every op with memory-system work. dst is reused across refills and the
// path allocates nothing.
func (s *Stream) NextBatch(dst []Op) int {
	x := s.rng.State()
	for i := range dst {
		x = s.gen(&dst[i], x)
	}
	s.rng.SetState(x)
	s.generated += uint64(len(dst))
	return len(dst)
}

// Instruction-stream locality: real code concentrates execution in hot
// functions. hotJumpProb of taken jumps land in the hot fraction of the
// footprint; the rest are uniform over the whole code. This skew is what
// lets a shared LLC retain the hot instruction working set against data
// churn while the cold tail still misses (the scale-out frontend profile).
const (
	hotJumpProb  = 0.96
	hotInstrFrac = 0.08
)

// gen produces one op, writing both of its words. It threads the RNG
// state x through every draw in register instead of bouncing it off the
// Stream per draw: each `x = sim.StateStep(x)` + StateRaw53 /
// StateUint64 pair reproduces exactly one historical rng.Raw53() /
// rng.Uint64Mod() call, in the same order, so the draw sequence — and
// therefore every generated op — is bit-identical to the pre-threading
// code. Callers own the round-trip (rng.State() in, rng.SetState() out).
//
// The instruction side advances the PC by one instruction (4 bytes),
// jumping to a random function start every JumpEveryLines lines on
// average; the data side picks the region and address for memory ops.
func (s *Stream) gen(op *Op, x uint64) uint64 {
	// Instruction fetch.
	var iw uint64
	line := s.pc.Line()
	if !s.havePC || line != s.lastILine {
		iw = uint64(line) // instruction lines sit above 2^32: never 0
		if s.havePC && s.jumped {
			iw |= 1
		}
		s.lastILine = line
		s.havePC = true
	}
	s.jumped = false
	// Advance.
	next := s.pc + 4
	if next.Line() != line {
		// Crossing a line boundary: maybe jump instead.
		x = sim.StateStep(x)
		if sim.StateRaw53(x) < s.th.jump {
			dv := s.instrDiv
			x = sim.StateStep(x)
			if sim.StateRaw53(x) < s.th.hotJump && s.hotSpan >= mem.LineSize {
				dv = s.hotDiv
			}
			x = sim.StateStep(x)
			next = instrBase + mem.Addr(dv.Mod(sim.StateUint64(x)))&^(mem.LineSize-1)
			s.jumped = true
		}
		if uint64(next-instrBase) >= uint64(s.instrFP) {
			next = instrBase
		}
	}
	s.pc = next
	op.IWord = iw

	// Data access?
	x = sim.StateStep(x)
	if sim.StateRaw53(x) < s.th.mem {
		return s.genData(op, x)
	}
	op.DWord = 0
	return x
}

// Region-dependent instruction-level parallelism: middle-set accesses are
// array/hash lookups whose addresses rarely depend on in-flight loads, so
// an OoO core overlaps them well; secondary accesses are pointer chases
// that serialize (the low-MLP behaviour paper Sec. II-B attributes to
// server workloads). Both scale the spec's base IndepProb.
const (
	middleIndepScale    = 2.4
	secondaryIndepScale = 0.6
	coldIndepScale      = 2.0 // streaming misses prefetch/overlap well
	sharedIndepScale    = 2.6 // GC/producer-consumer traffic is asynchronous
)

// coldRegionBytes is the per-core cold region at paper scale.
const coldRegionBytes = int64(16) << 30

func scaledProb(p, scale float64) float64 {
	p *= scale
	if p > 0.95 {
		p = 0.95
	}
	return p
}

// genData picks the data region and address for a memory instruction,
// threading the RNG state like gen and assembling the packed DWord in
// registers: the default independence draw happens first (historical draw
// order), some region branches re-draw it, and the composed word lands in
// op with a single store.
func (s *Stream) genData(op *Op, x uint64) uint64 {
	dw := opMem
	x = sim.StateStep(x)
	indep := sim.StateRaw53(x) < s.th.indep
	x = sim.StateStep(x)
	r := sim.StateRaw53(x)
	var addr mem.Addr
	switch {
	case r < s.th.primary:
		base := primaryBase + mem.Addr(int64(s.core)*primaryStride)
		x = sim.StateStep(x)
		addr = base + mem.Addr(s.primaryDiv.Mod(sim.StateUint64(x)))
		x = sim.StateStep(x)
		if sim.StateRaw53(x) < s.th.store {
			dw |= opWrite
		}
	case r < s.th.middle:
		base := middleBase + mem.Addr(int64(s.core)*middleStride)
		x = sim.StateStep(x)
		addr = base + mem.Addr(s.middleDiv.Mod(sim.StateUint64(x)))
		x = sim.StateStep(x)
		if sim.StateRaw53(x) < s.th.store {
			dw |= opWrite
		}
		x = sim.StateStep(x)
		indep = sim.StateRaw53(x) < s.th.indepMiddle
	case r < s.th.secondary:
		owner := s.core
		if s.ncores > 1 {
			x = sim.StateStep(x)
			if sim.StateRaw53(x) < s.th.remote {
				x = sim.StateStep(x)
				owner = int(s.remoteDiv.Mod(sim.StateUint64(x)))
				if owner >= s.core {
					owner++
				}
			}
		}
		base := secBase + mem.Addr(int64(owner)*secStride)
		var off int64
		x = sim.StateStep(x)
		if sim.StateRaw53(x) < s.th.scan {
			off = s.scanCursor
			s.scanCursor += mem.LineSize
			if s.scanCursor >= s.secondary {
				s.scanCursor = 0
			}
		} else {
			x = sim.StateStep(x)
			off = int64(s.secondaryDiv.Mod(sim.StateUint64(x)))
		}
		addr = base + mem.Addr(off)
		x = sim.StateStep(x)
		if sim.StateRaw53(x) < s.th.store {
			dw |= opWrite
		}
		x = sim.StateStep(x)
		indep = sim.StateRaw53(x) < s.th.indepSec
	case r < s.th.rw:
		x = sim.StateStep(x)
		addr = sharedBase + mem.Addr(s.sharedDiv.Mod(sim.StateUint64(x)))
		x = sim.StateStep(x)
		if sim.StateRaw53(x) < s.th.sharedWrite {
			dw |= opWrite
		}
		dw |= opRWShared
		x = sim.StateStep(x)
		indep = sim.StateRaw53(x) < s.th.indepShared
	default:
		// Cold stream: uniform over a region far larger than any cache
		// (16GB per core at paper scale), so reuse is negligible and the
		// page-based DRAM cache finds no spatial footprint to exploit.
		base := coldBase + mem.Addr(int64(s.core)*coldStride)
		x = sim.StateStep(x)
		addr = base + mem.Addr(s.coldDiv.Mod(sim.StateUint64(x)))
		x = sim.StateStep(x)
		if sim.StateRaw53(x) < s.th.store {
			dw |= opWrite
		}
		x = sim.StateStep(x)
		indep = sim.StateRaw53(x) < s.th.indepCold
		dw |= opNonTemporal
	}
	if indep {
		dw |= opIndependent
	}
	op.DWord = dw | uint64(addr)
	return x
}

// Footprint declares the stream's cache-resident footprints — the
// instruction footprint, the middle set, the shared pool and the
// secondary slice — for a prewarm walk to visit once, line by line. The
// secondary slice starts at the scan cursor, so after a functional
// replay the LRU state matches a scan that has been running forever.
// This is the reproduction's substitute for the paper's warmed
// checkpoints: it seeds steady-state cache contents in time
// proportional to the footprint rather than to the access count that
// would organically touch it.
func (s *Stream) Footprint() []Region {
	regions := make([]Region, 0, 4)
	regions = append(regions, Region{Base: instrBase, Bytes: s.instrFP, Instr: true})
	if s.middle > 0 {
		regions = append(regions, Region{Base: middleBase + mem.Addr(int64(s.core)*middleStride), Bytes: s.middle})
	}
	if s.sharedPool > 0 {
		regions = append(regions, Region{Base: sharedBase, Bytes: s.sharedPool})
	}
	return append(regions, Region{Base: secBase + mem.Addr(int64(s.core)*secStride), Bytes: s.secondary, Start: s.scanCursor})
}

// AddrLimit is the end of the stream's highest region under its current
// spec: its own instruction, primary, middle and cold slices, the shared
// pool, and the secondary slice of the last core, which remote accesses
// reach. The last core's cold region ends highest of all, below 2^41 up
// to 16 cores and below 2^42 up to 32 (TestSourceAddrLimit).
func (s *Stream) AddrLimit() mem.Addr {
	core, last := int64(s.core), int64(s.ncores-1)
	return max(
		instrBase+mem.Addr(s.instrFP),
		primaryBase+mem.Addr(core*primaryStride+s.primary),
		middleBase+mem.Addr(core*middleStride+s.middle),
		sharedBase+mem.Addr(s.sharedPool),
		secBase+mem.Addr(last*secStride+s.secondary),
		coldBase+mem.Addr(core*coldStride+s.coldRegion),
	)
}
