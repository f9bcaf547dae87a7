package core

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vault"
)

// privateHierarchy implements SILO (paper Secs. III and V): per-core
// private L1s (plus optional L2) backed by a private die-stacked DRAM vault
// used as an inclusive, direct-mapped, TAD-organized LLC slice. Coherence
// is a directory protocol (MOESI by default) whose duplicate-tag metadata
// lives in the vaults: a miss in the local vault consults the line's home
// vault, which may forward to a remote owner vault or to memory. The
// directory is the vault tags themselves (coherence.Directory): each
// vault slot carries its core's MOESI state, and the vaults are one
// cache.Group, so a line's slots in every vault are adjacent.
//
// Access paths (paper Sec. V-C): up to three DRAM accesses may serialize —
// local vault (miss discovered after the TAD read), directory metadata at
// the home vault, and the remote owner's vault. The LocalMissPredictor and
// DirectoryCache optimizations (both ideal, per Fig 12) elide the first
// two respectively.
type privateHierarchy struct {
	sys *System
	st  Stats

	l1i, l1d []*cache.Array
	l2       []*cache.Array

	vaultTags *cache.Group         // every core's vault tags, one set-major slab
	vaultArr  []*cache.Array       // vaultTags.Arrays(): core c's private LLC contents and coherence state
	vaults    []*vault.Vault       // per-core vault timing
	dir       *coherence.Directory // the view over vaultTags

	// moesi enables the L1-D ownership cache (see markL1Writable): under
	// MOESI an owned line stays owned until an invalidation or inclusion
	// victim removes the L1 copy, so repeated store hits can skip the
	// directory permission check. MESI downgrades M->S on a remote read
	// without touching the owner's L1, so the cache would go stale there.
	moesi bool

	// homeDiv is the precomputed reciprocal of the core count for homeOf
	// (one fastmod instead of a hardware divide per directory consult).
	homeDiv sim.Divisor
}

func newPrivateHierarchy(sys *System) *privateHierarchy {
	cfg := sys.cfg
	h := &privateHierarchy{
		sys:       sys,
		l1i:       make([]*cache.Array, cfg.Cores),
		l1d:       make([]*cache.Array, cfg.Cores),
		vaultTags: cache.NewGroup(cfg.Cores, scaledPow2(cfg.VaultCapacity, cfg.Scale), cfg.VaultWays, cache.LRU, sys.lineBits),
		vaults:    make([]*vault.Vault, cfg.Cores),
		moesi:     cfg.Protocol == coherence.MOESI,
		homeDiv:   sim.NewDivisor(uint64(cfg.Cores)),
	}
	h.vaultArr = h.vaultTags.Arrays()
	l1 := scaledL1(cfg.L1Size, cfg.Scale)
	for c := 0; c < cfg.Cores; c++ {
		h.l1i[c] = cache.NewArray(l1, cfg.L1Ways, cache.LRU)
		h.l1d[c] = cache.NewArray(l1, cfg.L1Ways, cache.LRU)
		h.vaults[c] = vault.New(sys.engine, cfg.VaultTiming)
	}
	h.dir = coherence.NewDirectory(h.vaultTags, cfg.Protocol)
	if cfg.L2Size > 0 {
		h.l2 = make([]*cache.Array, cfg.Cores)
		for c := 0; c < cfg.Cores; c++ {
			h.l2[c] = cache.NewArray(scaledPow2(cfg.L2Size, cfg.Scale), cfg.L2Ways, cache.LRU)
		}
	}
	return h
}

func (h *privateHierarchy) stats() Stats { return h.st }

// lineTable and reserve have nothing to report or size: the directory
// keeps its state in the vault slots, not in a line table.
func (h *privateHierarchy) lineTable() (entries, bytesPerSlot int) { return 0, 0 }
func (h *privateHierarchy) reserve(int)                            {}

// homeOf address-interleaves directory homes across the vaults (paper
// Sec. V-B: physically distributed, address-interleaved directory).
func (h *privateHierarchy) homeOf(line mem.LineAddr) int {
	return int(h.homeDiv.Mod(uint64(line) / mem.LineSize))
}

// dirLatency is the cost of consulting the directory metadata at the home
// vault: NoC to the home plus an in-DRAM metadata access (elided entirely
// by the ideal directory cache, which leaves only the NoC hop).
func (h *privateHierarchy) dirLatency(core, home int, line mem.LineAddr, timing bool) sim.Cycle {
	h.st.DirAccesses++
	if !timing {
		return 0
	}
	lat := h.sys.mesh.Latency(core, home)
	if !h.sys.cfg.DirectoryCache {
		lat += h.vaults[home].MetadataAccess(line)
		h.st.VaultAccesses++
	}
	return lat
}

func (h *privateHierarchy) ifetch(core int, line mem.LineAddr, jump, timing bool) (sim.Cycle, bool) {
	if w := h.l1i[core].ProbeTouch(line); w != cache.NoWay {
		return 0, true
	}
	if !jump {
		h.fillIFetch(core, line, false)
		return 0, true
	}
	lat := h.fillIFetch(core, line, timing)
	return lat, false
}

func (h *privateHierarchy) fillIFetch(core int, line mem.LineAddr, timing bool) sim.Cycle {
	lat := h.readVaultPath(core, line, false, timing)
	if h.l2 != nil {
		h.insertL2(core, line)
	}
	// Both ifetch callers reach here straight after an L1-I probe miss,
	// and the vault fill can only back-invalidate a *victim* line, so the
	// fetched line is still absent. L1 evictions are silent; dirtiness
	// lives at vault level.
	h.l1i[core].InsertAt(line, cache.Shared)
	return lat
}

func (h *privateHierarchy) data(core int, addr mem.Addr, write, rwShared, nonTemporal, timing bool) (sim.Cycle, bool) {
	line := addr.Line()

	if w := h.l1d[core].ProbeTouch(line); w != cache.NoWay {
		if !write {
			return 0, true
		}
		if h.l1d[core].WayState(w) == cache.Modified {
			// Cached ownership: the line was stored to before and the L1
			// copy survived, so the vault still owns it (MOESI; see the
			// moesi field). Skips the directory permission check, which
			// has no side effects on this branch.
			return 0, true
		}
		// Store: writable when the vault holds the line in E, M or O.
		switch h.dir.StateOf(line, core) {
		case cache.Modified, cache.Owned:
			h.markL1Writable(core, w)
			return 0, true
		case cache.Exclusive:
			h.dir.MarkDirty(line, core)
			h.markL1Writable(core, w)
			return 0, true
		default:
			// Shared (or lost to eviction): upgrade through the directory.
			// An L1 hit implies the vault holds the line (inclusion), so
			// the upgrade never refills the vault and w stays valid.
			lat := h.writeVaultPath(core, line, rwShared, timing)
			h.markL1Writable(core, w)
			return lat, false
		}
	}

	if w := probeL2(h.l2, core, line); w != cache.NoWay {
		l1w := h.fillL1D(core, line)
		lat := h.sys.cfg.L2Latency
		if !timing {
			lat = 0
		}
		if write {
			switch h.dir.StateOf(line, core) {
			case cache.Modified, cache.Owned:
			case cache.Exclusive:
				h.dir.MarkDirty(line, core)
			default:
				lat += h.writeVaultPath(core, line, rwShared, timing)
			}
			h.markL1Writable(core, l1w)
		}
		return lat, false
	}

	var lat sim.Cycle
	if write {
		// A store already owned at the vault level is a plain local vault
		// access; only stores to Shared or absent lines need the directory.
		switch h.dir.StateOf(line, core) {
		case cache.Modified, cache.Owned:
			lat = h.localWriteHit(core, line, rwShared, timing)
		case cache.Exclusive:
			h.dir.MarkDirty(line, core)
			lat = h.localWriteHit(core, line, rwShared, timing)
		default:
			lat = h.writeVaultPath(core, line, rwShared, timing)
		}
	} else {
		lat = h.readVaultPath(core, line, rwShared, timing)
	}
	if h.l2 != nil {
		h.insertL2(core, line)
	}
	l1w := h.fillL1D(core, line)
	if write {
		h.markL1Writable(core, l1w)
	}
	return lat, false
}

// markL1Writable caches vault-level ownership in the L1-D line state after
// a store settles: every path that reaches it leaves the directory state
// M or O for this core, so under MOESI the Modified mark stays truthful
// until an invalidation or inclusion victim removes the L1 copy. The mark
// is a pure lookup accelerator — no stat or result depends on it — and is
// disabled under MESI, where a remote read downgrades the owner silently.
func (h *privateHierarchy) markL1Writable(core int, w cache.Way) {
	if h.moesi {
		h.l1d[core].SetStateWay(w, cache.Modified)
	}
}

// localWriteHit services a store whose line is owned by the local vault:
// one TAD access, no coherence traffic.
func (h *privateHierarchy) localWriteHit(core int, line mem.LineAddr, rwShared, timing bool) sim.Cycle {
	h.st.LLCAccesses++
	if rwShared {
		h.st.WritesRWShared++
	} else {
		h.st.WritesPrivate++
	}
	h.st.LocalHits++
	if w := h.vaultArr[core].Probe(line); w != cache.NoWay {
		h.vaultArr[core].TouchWay(w)
	}
	if !timing {
		return 0
	}
	h.st.VaultAccesses++
	return h.vaults[core].Access(line)
}

// fillVaultAt installs a line its vault Probe just missed in the state
// the directory gave it, maintaining inclusion (back-invalidating the
// victim from the upper levels); a victim that was a dirty owner (M or
// O) writes back.
func (h *privateHierarchy) fillVaultAt(core int, line mem.LineAddr, st cache.State, timing bool) {
	_, ev, evicted := h.vaultArr[core].InsertAt(line, st)
	if !evicted {
		return
	}
	// Inclusion: the victim leaves every private level.
	h.l1d[core].Invalidate(ev.Line)
	h.l1i[core].Invalidate(ev.Line)
	if h.l2 != nil {
		h.l2[core].Invalidate(ev.Line)
	}
	if ev.Dirty() {
		h.st.MemWritebacks++
		if timing {
			h.sys.mainMem.Writeback(ev.Line)
		}
	}
}

// readVaultPath is the SILO read flow: local vault, then directory, then
// remote owner or memory.
func (h *privateHierarchy) readVaultPath(core int, line mem.LineAddr, rwShared, timing bool) sim.Cycle {
	_ = rwShared // the RW-shared latency study applies to the baseline only
	cfg := &h.sys.cfg
	h.st.LLCAccesses++
	h.st.Reads++

	// Probe + TouchWay rather than the fused ProbeTouch: the vault is
	// direct-mapped in every paper configuration, so both calls inline and
	// the touch vanishes into a predicted branch.
	w := h.vaultArr[core].Probe(line)
	var lat sim.Cycle
	if w != cache.NoWay {
		if timing {
			lat = h.vaults[core].Access(line)
			h.st.VaultAccesses++
		}
		h.vaultArr[core].TouchWay(w)
		h.st.LocalHits++
		return lat
	}

	// Local miss. Without the (ideal) miss predictor the TAD read happens
	// before the miss is known.
	if timing && !cfg.LocalMissPredictor {
		lat += h.vaults[core].Access(line)
		h.st.VaultAccesses++
	}

	home := h.homeOf(line)
	lat += h.dirLatency(core, home, line, timing)

	out := h.dir.Read(line, core)
	if out.MemWriteback {
		h.st.MemWritebacks++
		if timing {
			h.sys.mainMem.Writeback(line)
		}
	}
	if out.Source == coherence.MemorySource {
		h.st.Misses++
		h.st.MemAccesses++
		if timing {
			lat += h.sys.mainMem.Access(line) + h.sys.mesh.Latency(home, core)
		}
	} else {
		h.st.RemoteHits++
		h.st.Forwards++
		if timing {
			lat += h.sys.mesh.Latency(home, out.Source) +
				h.vaults[out.Source].Access(line) +
				h.sys.mesh.Latency(out.Source, core)
			h.st.VaultAccesses++
		}
		if w := h.vaultArr[out.Source].Probe(line); w != cache.NoWay {
			h.vaultArr[out.Source].TouchWay(w)
		}
	}

	h.fillVaultAt(core, line, out.FillState, timing)
	return lat
}

// writeVaultPath is the SILO write flow: local permission check happened at
// the caller; this path acquires ownership through the directory.
func (h *privateHierarchy) writeVaultPath(core int, line mem.LineAddr, rwShared, timing bool) sim.Cycle {
	_ = rwShared
	cfg := &h.sys.cfg
	h.st.LLCAccesses++
	if rwShared {
		h.st.WritesRWShared++
	} else {
		h.st.WritesPrivate++
	}

	w := h.vaultArr[core].Probe(line)
	local := w != cache.NoWay
	var lat sim.Cycle
	if timing && !local && !cfg.LocalMissPredictor {
		// Miss discovered by the TAD read.
		lat += h.vaults[core].Access(line)
		h.st.VaultAccesses++
	} else if timing && local {
		// Upgrade still reads the local TAD (data is here, permission not).
		lat += h.vaults[core].Access(line)
		h.st.VaultAccesses++
	}

	home := h.homeOf(line)
	lat += h.dirLatency(core, home, line, timing)

	out := h.dir.WriteMask(line, core)
	if out.InvalidatedMask != 0 {
		h.st.Invalidations += uint64(bits.OnesCount32(out.InvalidatedMask))
		far := sim.Cycle(0)
		for m := out.InvalidatedMask; m != 0; m &= m - 1 {
			c := bits.TrailingZeros32(m)
			h.vaultArr[c].Invalidate(line)
			h.l1d[c].Invalidate(line)
			h.l1i[c].Invalidate(line)
			if h.l2 != nil {
				h.l2[c].Invalidate(line)
			}
			if timing {
				if rt := h.sys.mesh.RoundTrip(home, c); rt > far {
					far = rt
				}
			}
		}
		lat += far
	}

	switch {
	case out.Upgrade:
		// Upgrades only happen on lines the vault already holds Shared,
		// the directory has made the slot Modified, and peer
		// invalidations never touch the requester's vault, so the probed
		// way is still valid.
		h.st.Upgrades++
		h.st.LocalHits++
		h.vaultArr[core].TouchWay(w)
	case out.Source == coherence.MemorySource:
		h.st.Misses++
		h.st.MemAccesses++
		if timing {
			lat += h.sys.mainMem.Access(line) + h.sys.mesh.Latency(home, core)
		}
		h.fillVaultAt(core, line, cache.Modified, timing)
	default:
		h.st.RemoteHits++
		h.st.Forwards++
		if timing {
			lat += h.sys.mesh.Latency(home, out.Source) + h.sys.mesh.Latency(out.Source, core)
		}
		h.fillVaultAt(core, line, cache.Modified, timing)
	}
	return lat
}

// fillL1D installs a line into the L1-D and returns its way. Every caller
// sits on a path where the L1-D probe at the top of data() missed and no
// intervening step can have inserted the line (vault fills only
// back-invalidate victims), so the insert skips the duplicate scan.
func (h *privateHierarchy) fillL1D(core int, line mem.LineAddr) cache.Way {
	w, _, _ := h.l1d[core].InsertAt(line, cache.Shared)
	return w
}

func (h *privateHierarchy) insertL2(core int, line mem.LineAddr) {
	if w := h.l2[core].ProbeTouch(line); w != cache.NoWay {
		return
	}
	h.l2[core].InsertAt(line, cache.Shared)
}

// check validates the directory's states (coherence.Directory.
// CheckInvariants) and inclusion above the vaults.
func (h *privateHierarchy) check() string {
	if msg := h.dir.CheckInvariants(); msg != "" {
		return msg
	}
	for c := 0; c < h.sys.cfg.Cores; c++ {
		bad := ""
		// Inclusion: every L1-D line is in the vault. The ownership cache
		// (markL1Writable) additionally requires that an L1-D line marked
		// Modified is still owned at the vault level — a stale mark would
		// let a store skip its directory upgrade silently.
		h.l1d[c].ForEach(func(line mem.LineAddr, st cache.State) {
			if bad != "" {
				return
			}
			ds := h.dir.StateOf(line, c)
			if !ds.Valid() {
				bad = fmt.Sprintf("core %d L1D holds %#x outside its vault (inclusion broken)", c, uint64(line))
				return
			}
			if st == cache.Modified && ds != cache.Modified && ds != cache.Owned {
				bad = fmt.Sprintf("core %d L1D marks %#x writable but directory state is %v (stale ownership cache)",
					c, uint64(line), ds)
			}
		})
		if bad != "" {
			return bad
		}
	}
	return ""
}
