package core

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/memctl"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// hierarchy is the system-specific memory organization beneath the cores.
// Implementations handle both timed access (timing=true, returning the
// total latency) and functional warm-up (timing=false, mutating cache and
// coherence state only).
type hierarchy interface {
	// ifetch performs an instruction fetch. jump marks a non-sequential
	// transfer (sequential transitions are next-line-prefetched and only
	// maintain state). hit reports whether the access completed without
	// leaving the L1/L2.
	ifetch(core int, line mem.LineAddr, jump, timing bool) (lat sim.Cycle, hit bool)
	// data performs a load or store. nonTemporal fills go in at LRU
	// priority.
	data(core int, addr mem.Addr, write, rwShared, nonTemporal, timing bool) (lat sim.Cycle, hit bool)
	// stats returns the current counter values.
	stats() Stats
	// lineTable reports the coherence line-table occupancy: live entries
	// and the store's inline bytes per slot (0, 0 for SILO, whose
	// directory is the vault slots).
	lineTable() (entries, bytesPerSlot int)
	// reserve sizes the empty line table for n distinct lines, capped at
	// the most lines the table can mirror at once (a no-op for SILO).
	reserve(n int)
	// check validates internal invariants, returning "" when healthy.
	check() string
	// checkpoint walks the hierarchy's mutable state through the
	// per-component checkpoint walks (checkpoint.go, DESIGN.md §11).
	checkpoint(c *checkpoint.Codec)
}

// System is one simulated machine: cores with workload streams over a
// hierarchy.
type System struct {
	cfg     Config
	engine  *sim.Engine
	mesh    *noc.Mesh
	mainMem *memctl.Memory
	hier    hierarchy
	cores   []*cpu.Core
	sources []workload.Source
	started bool

	// lineBits is the width of every line address (address /
	// mem.LineSize) the sources can emit (lineBitsOf): it sizes the cache
	// arrays' packed slots and picks the snoop filter's store.
	lineBits uint
}

// NewSystem builds a system running the given per-core workloads. specs
// must contain either one spec (replicated to all cores) or exactly one
// per core.
func NewSystem(cfg Config, specs []workload.Spec) *System {
	cfg.Validate()
	return NewSystemFromSources(cfg, SpecSources(cfg, specs))
}

// SpecSources builds the per-core synthetic streams NewSystem runs:
// specs holds either one spec (replicated to all cores) or exactly one
// per core. A warm-up recording (RecordWarmup) runs on a fresh set.
func SpecSources(cfg Config, specs []workload.Spec) []workload.Source {
	if len(specs) != 1 && len(specs) != cfg.Cores {
		panic(fmt.Sprintf("core: %d specs for %d cores", len(specs), cfg.Cores))
	}
	sources := make([]workload.Source, cfg.Cores)
	for c := range sources {
		spec := specs[0]
		if len(specs) > 1 {
			spec = specs[c]
		}
		sources[c] = workload.NewStream(spec, c, cfg.Cores, cfg.Scale, cfg.Seed)
	}
	return sources
}

// NewSystemFromSources builds a system over pre-built per-core op
// sources — the scenario path (DESIGN.md §14): internal/scenario
// compiles a spec file's clients into phased streams, trace replays and
// sharing-group bindings, then hands exactly cfg.Cores sources here.
// NewSystem is this constructor with one synthetic Stream per core.
// The sources' address limits fix the width of the line addresses the
// system's caches and snoop filter hold.
func NewSystemFromSources(cfg Config, sources []workload.Source) *System {
	cfg.Validate()
	if len(sources) != cfg.Cores {
		panic(fmt.Sprintf("core: %d sources for %d cores", len(sources), cfg.Cores))
	}

	engine := sim.NewEngine()
	w, h := meshDims(cfg.Cores)
	mesh := noc.New(w, h, cfg.HopLatency)
	mainMem := memctl.New(engine, cfg.Memory)

	s := &System{
		cfg:      cfg,
		engine:   engine,
		mesh:     mesh,
		mainMem:  mainMem,
		lineBits: lineBitsOf(sources),
	}
	// Each hierarchy gets its concrete adapter, so the adapter's inner
	// call is direct (devirtualized): an access pays one interface
	// dispatch (core -> adapter), not two.
	var adapter cpu.Hierarchy
	switch cfg.Kind {
	case Baseline, BaselineDRAM, VaultsShared:
		h := newSharedHierarchy(s)
		s.hier, adapter = h, &sharedCoreAdapter{hier: h}
	case SILO, SILOCO:
		h := newPrivateHierarchy(s)
		s.hier, adapter = h, &privateCoreAdapter{hier: h}
	}

	s.sources = sources
	s.cores = make([]*cpu.Core, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		s.cores[c] = cpu.New(engine, c, cpu.DefaultConfig(), s.sources[c], adapter)
	}
	return s
}

// lineBitsOf returns the width of the line addresses below the largest
// AddrLimit of sources: 35 bits for synthetic systems of up to 16 cores,
// 36 up to 32, and up to cache.MaxLineBits for the sharing groups of a
// scenario. It panics on a source reaching past what a cache tag holds.
func lineBitsOf(sources []workload.Source) uint {
	var limit mem.Addr
	for _, src := range sources {
		limit = max(limit, src.AddrLimit())
	}
	lineBits := uint(bits.Len64(uint64(limit-1) / mem.LineSize))
	if lineBits > cache.MaxLineBits {
		panic(fmt.Sprintf("core: source addresses reach %#x, beyond the 2^%d bytes a cache tag holds",
			uint64(limit-1), cache.MaxLineBits+6))
	}
	return lineBits
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Engine exposes the simulation engine (examples and tests).
func (s *System) Engine() *sim.Engine { return s.engine }

// privateCoreAdapter and sharedCoreAdapter implement cpu.Hierarchy over
// a concrete hierarchy. They only translate latencies: completion
// scheduling lives in the core, which reuses pre-bound callbacks, so a
// timed access allocates nothing here. The hierarchy is captured
// directly (not reached through the System) and its inner ifetch/data
// calls are direct, so the compiler devirtualizes what would otherwise
// be a second indirect call on every simulated access.
type privateCoreAdapter struct {
	hier *privateHierarchy
}

var _ cpu.Hierarchy = (*privateCoreAdapter)(nil)

func (a *privateCoreAdapter) IFetch(core int, line mem.LineAddr, jump bool) (sim.Cycle, bool) {
	lat, hit := a.hier.ifetch(core, line, jump, true)
	return lat, hit && lat == 0
}

func (a *privateCoreAdapter) Data(core int, addr mem.Addr, write, rwShared, independent, nonTemporal bool) (sim.Cycle, bool) {
	lat, hit := a.hier.data(core, addr, write, rwShared, nonTemporal, true)
	return lat, hit && lat == 0
}

type sharedCoreAdapter struct {
	hier *sharedHierarchy
}

var _ cpu.Hierarchy = (*sharedCoreAdapter)(nil)

func (a *sharedCoreAdapter) IFetch(core int, line mem.LineAddr, jump bool) (sim.Cycle, bool) {
	lat, hit := a.hier.ifetch(core, line, jump, true)
	return lat, hit && lat == 0
}

func (a *sharedCoreAdapter) Data(core int, addr mem.Addr, write, rwShared, independent, nonTemporal bool) (sim.Cycle, bool) {
	lat, hit := a.hier.data(core, addr, write, rwShared, nonTemporal, true)
	return lat, hit && lat == 0
}

// WarmFunctional streams instrPerCore instructions per core through the
// hierarchy with no timing, in round-robin chunks, bringing caches,
// directories and the DRAM cache to steady state (the reproduction's
// substitute for the paper's checkpoint-based warm-up). Each core-round
// is generated into one buffer and applied by the loop a recorded
// warm-up replays through (ReplayWarmup).
func (s *System) WarmFunctional(instrPerCore int) {
	if s.started {
		panic("core: warm-up after timing start")
	}
	buf := make([]workload.Op, warmChunk)
	forRounds(instrPerCore, s.cfg.Cores, func(c, n int) {
		s.sources[c].NextBatch(buf[:n])
		s.warmOps(c, buf[:n])
	})
}

// startCores transitions the system into the timed phase. Idempotent;
// shared by Run and StreamWindows.
func (s *System) startCores() {
	if s.started {
		return
	}
	for _, c := range s.cores {
		c.Start()
	}
	s.started = true
}

// Close does nothing: a System holds no goroutines or other resources.
//
// Deprecated: perfbench is the only remaining caller; delete the method
// once perfbench stops calling it.
func (s *System) Close() {}

// Run starts the cores (if needed), runs warmCycles of timed warm-up, then
// measures for measureCycles and returns the window's metrics — the
// SMARTS-style scheme of paper Sec. VI-D. It is the first window of
// StreamWindows(warmCycles, measureCycles), so measureCycles must be
// positive; the returned PerCoreRetired belongs to the caller.
func (s *System) Run(warmCycles, measureCycles sim.Cycle) Metrics {
	return *s.StreamWindows(warmCycles, measureCycles).Next()
}

// CheckInvariants exposes hierarchy invariant checking to tests.
func (s *System) CheckInvariants() string { return s.hier.check() }

// LineTable reports the coherence line-table occupancy — live entries and
// inline bytes per slot — so benchmarks can record the table regime
// they measured (DESIGN.md §8). Only a shared hierarchy's snoop filter
// keeps one; a SILO system reports 0, 0.
func (s *System) LineTable() (entries, bytesPerSlot int) { return s.hier.lineTable() }

// Prewarm seeds steady-state cache contents analytically: each core's
// cache-resident footprints (workload.Source.Footprint: instructions,
// middle and secondary sets, shared pool) are replayed once through the
// functional access path, interleaved across cores in chunks so shared
// structures see realistic contention. The walk streams the regions
// through one cursor per core, and a snoop filter's line table is sized
// once for the footprint beforehand, so neither an address list nor
// table growth is paid for (DESIGN.md §8). Run this before WarmFunctional; together
// they substitute for the paper's warmed checkpoints.
func (s *System) Prewarm() {
	if s.started {
		panic("core: prewarm after timing start")
	}
	const chunk = 1024
	cursors := make([]prewarmCursor, s.cfg.Cores)
	bytesAt := map[mem.Addr]int64{} // a base shared by cores counts once
	for c := range cursors {
		cursors[c].regions = s.sources[c].Footprint()
		for _, r := range cursors[c].regions {
			bytesAt[r.Base] = max(bytesAt[r.Base], r.Bytes)
		}
	}
	lines := 0
	for _, b := range bytesAt {
		lines += int((b + mem.LineSize - 1) / mem.LineSize)
	}
	s.hier.reserve(lines)
	for remaining := true; remaining; {
		remaining = false
		for c := range cursors {
			if s.prewarmChunk(c, &cursors[c], chunk) {
				remaining = true
			}
		}
	}
}

// prewarmCursor is one core's position in its footprint walk: the
// region being visited and how far into it the walk has got.
type prewarmCursor struct {
	regions []workload.Region
	r       int   // current region
	done    int64 // bytes of regions[r] already visited
}

// prewarmChunk replays core c's next n footprint lines, crossing region
// boundaries as needed, and reports whether any remain.
func (s *System) prewarmChunk(c int, cur *prewarmCursor, n int) bool {
	for n > 0 && cur.r < len(cur.regions) {
		reg := &cur.regions[cur.r]
		for ; n > 0 && cur.done < reg.Bytes; cur.done += mem.LineSize {
			off := reg.Start + cur.done
			if off >= reg.Bytes {
				off -= reg.Bytes
			}
			addr := reg.Base + mem.Addr(off)
			if reg.Instr {
				s.hier.ifetch(c, addr.Line(), true, false)
			} else {
				s.hier.data(c, addr, false, false, false, false)
			}
			n--
		}
		if cur.done >= reg.Bytes {
			cur.r, cur.done = cur.r+1, 0
		}
	}
	return cur.r < len(cur.regions)
}
