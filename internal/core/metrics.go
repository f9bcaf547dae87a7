package core

import "repro/internal/sim"

// Stats is the raw event-count record every hierarchy maintains. Metrics
// are computed as deltas between snapshots, so functional warm-up and
// timing warm-up pollute nothing.
type Stats struct {
	// LLC-level demand accesses (L1/L2 misses reaching the LLC, plus
	// coherence upgrades).
	LLCAccesses uint64
	// Hit/miss decomposition (Fig 11). For shared LLCs every hit is local.
	LocalHits  uint64
	RemoteHits uint64
	Misses     uint64

	// Access-type decomposition at the LLC (Fig 3).
	Reads          uint64
	WritesPrivate  uint64 // writes that are not RW-shared
	WritesRWShared uint64

	// Memory-system activity (Figs 13 and traffic accounting).
	MemAccesses   uint64
	MemWritebacks uint64
	VaultAccesses uint64 // data + metadata DRAM-vault accesses
	DRAMCacheHits uint64

	// Coherence activity.
	Invalidations uint64
	Forwards      uint64
	DirAccesses   uint64
	Upgrades      uint64
}

// Metrics summarizes one measured window.
type Metrics struct {
	Kind    Kind
	Cycles  sim.Cycle
	Retired uint64
	// PerCoreRetired supports per-application reporting in colocation
	// studies (Table VI).
	PerCoreRetired []uint64
	Stats          Stats
}

// IPC is the aggregate instructions per cycle across all cores — the
// paper's throughput metric (Sec. VI-C).
func (m Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Retired) / float64(m.Cycles)
}

// CoreIPC is one core's retire rate.
func (m Metrics) CoreIPC(core int) float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.PerCoreRetired[core]) / float64(m.Cycles)
}

// RangeIPC is the aggregate IPC of cores [lo, hi) — the throughput of one
// colocated application.
func (m Metrics) RangeIPC(lo, hi int) float64 {
	if m.Cycles == 0 {
		return 0
	}
	var sum uint64
	for c := lo; c < hi; c++ {
		sum += m.PerCoreRetired[c]
	}
	return float64(sum) / float64(m.Cycles)
}

// LLCHitRate is (local+remote hits) / accesses.
func (m Metrics) LLCHitRate() float64 {
	if m.Stats.LLCAccesses == 0 {
		return 0
	}
	return float64(m.Stats.LocalHits+m.Stats.RemoteHits) / float64(m.Stats.LLCAccesses)
}

// MissRate is misses / accesses at the LLC.
func (m Metrics) MissRate() float64 {
	if m.Stats.LLCAccesses == 0 {
		return 0
	}
	return float64(m.Stats.Misses) / float64(m.Stats.LLCAccesses)
}

// Seconds converts the window length to wall-clock time at the core clock.
func (m Metrics) Seconds() float64 {
	return float64(m.Cycles) / (GHz * 1e9)
}
