package core

import (
	"fmt"

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
	// and the store's inline bytes per slot.
	lineTable() (entries, bytesPerSlot int)
	// check validates internal invariants, returning "" when healthy.
	check() string
	// snapshot/restore serialize the hierarchy's mutable state through
	// the per-component checkpoint seams (checkpoint.go, DESIGN.md §11).
	snapshot(w *checkpoint.Writer)
	restore(r *checkpoint.Reader) error
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
}

// NewSystem builds a system running the given per-core workloads. specs
// must contain either one spec (replicated to all cores) or exactly one
// per core.
func NewSystem(cfg Config, specs []workload.Spec) *System {
	cfg.Validate()
	perCore := make([]workload.Spec, cfg.Cores)
	switch len(specs) {
	case 1:
		for i := range perCore {
			perCore[i] = specs[0]
		}
	case cfg.Cores:
		copy(perCore, specs)
	default:
		panic(fmt.Sprintf("core: %d specs for %d cores", len(specs), cfg.Cores))
	}
	sources := make([]workload.Source, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		sources[c] = workload.NewStream(perCore[c], c, cfg.Cores, cfg.Scale, cfg.Seed)
	}
	return NewSystemFromSources(cfg, sources)
}

// NewSystemFromSources builds a system over pre-built per-core op
// sources — the scenario path (DESIGN.md §14): internal/scenario
// compiles a spec file's clients into phased streams, trace replays and
// sharing-group bindings, then hands exactly cfg.Cores sources here.
// NewSystem is this constructor with one synthetic Stream per core.
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
		cfg:     cfg,
		engine:  engine,
		mesh:    mesh,
		mainMem: mainMem,
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

// warmChunk is the per-core instruction granule of the functional warm-up
// round-robin: big enough to amortize generation, small enough that
// shared structures see realistic cross-core interleaving.
const warmChunk = 2000

// WarmFunctional streams instrPerCore instructions per core through the
// hierarchy with no timing, in round-robin chunks, bringing caches,
// directories and the DRAM cache to steady state (the reproduction's
// substitute for the paper's checkpoint-based warm-up).
func (s *System) WarmFunctional(instrPerCore int) {
	if s.started {
		panic("core: warm-up after timing start")
	}
	var op workload.Op
	for done := 0; done < instrPerCore; done += warmChunk {
		n := warmChunk
		if instrPerCore-done < n {
			n = instrPerCore - done
		}
		for c := 0; c < s.cfg.Cores; c++ {
			st := s.sources[c]
			for i := 0; i < n; i++ {
				st.Next(&op)
				s.warmOne(c, &op)
			}
		}
	}
}

// warmOne replays one op through the functional access path.
func (s *System) warmOne(c int, op *workload.Op) {
	if line := op.NewIFetchLine(); line != 0 {
		s.hier.ifetch(c, line, op.Jump(), false)
	}
	if op.IsMem() {
		s.hier.data(c, op.Addr(), op.Write(), op.RWShared(), op.NonTemporal(), false)
	}
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
// they measured (the multi-GB paper-scale footprints the compact-slot
// stores target, DESIGN.md §8).
func (s *System) LineTable() (entries, bytesPerSlot int) { return s.hier.lineTable() }

// Prewarm seeds steady-state cache contents analytically: each core's
// cache-resident footprints (instructions, middle and secondary sets,
// shared pool) are replayed once through the functional access path,
// interleaved across cores in chunks so shared structures see realistic
// contention. Run this before WarmFunctional; together they substitute for
// the paper's warmed checkpoints.
func (s *System) Prewarm() {
	if s.started {
		panic("core: prewarm after timing start")
	}
	const chunk = 1024
	type emitter struct {
		addrs []mem.Addr
		instr []bool
		pos   int
	}
	ems := make([]*emitter, s.cfg.Cores)
	for c := 0; c < s.cfg.Cores; c++ {
		e := &emitter{}
		s.sources[c].Prewarm(func(addr mem.Addr, instr bool) {
			e.addrs = append(e.addrs, addr)
			e.instr = append(e.instr, instr)
		})
		ems[c] = e
	}
	for {
		remaining := false
		for c := 0; c < s.cfg.Cores; c++ {
			e := ems[c]
			end := e.pos + chunk
			if end > len(e.addrs) {
				end = len(e.addrs)
			}
			for ; e.pos < end; e.pos++ {
				if e.instr[e.pos] {
					s.hier.ifetch(c, e.addrs[e.pos].Line(), true, false)
				} else {
					s.hier.data(c, e.addrs[e.pos], false, false, false, false)
				}
			}
			if e.pos < len(e.addrs) {
				remaining = true
			}
		}
		if !remaining {
			break
		}
	}
}
