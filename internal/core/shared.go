package core

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/dramcache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vault"
)

// sharedHierarchy implements the shared-LLC organizations: the SRAM NUCA
// baseline (with or without the conventional DRAM cache) and the shared
// die-stacked vault design Vaults-Sh. The LLC is the point of coherence:
// a MESI snoop filter tracks private-cache copies above it.
type sharedHierarchy struct {
	sys *System
	st  Stats

	l1i, l1d []*cache.Array
	l2       []*cache.Array // nil without the 3-level option

	banks     []*cache.Array
	vaults    []*vault.Vault // Vaults-Sh bank timing; nil for SRAM LLC
	snoop     *coherence.SnoopFilter
	dramCache *dramcache.Cache // BaselineDRAM only
}

func newSharedHierarchy(sys *System) *sharedHierarchy {
	cfg := sys.cfg
	h := &sharedHierarchy{
		sys:   sys,
		l1i:   make([]*cache.Array, cfg.Cores),
		l1d:   make([]*cache.Array, cfg.Cores),
		snoop: coherence.NewSnoopFilter(cfg.Cores, sys.lineBits),
	}
	l1 := scaledL1(cfg.L1Size, cfg.Scale)
	for c := 0; c < cfg.Cores; c++ {
		h.l1i[c] = cache.NewArray(l1, cfg.L1Ways, cache.LRU)
		h.l1d[c] = cache.NewArray(l1, cfg.L1Ways, cache.LRU)
	}
	if cfg.L2Size > 0 {
		h.l2 = make([]*cache.Array, cfg.Cores)
		for c := 0; c < cfg.Cores; c++ {
			h.l2[c] = cache.NewArray(scaledPow2(cfg.L2Size, cfg.Scale), cfg.L2Ways, cache.LRU)
		}
	}

	nbanks := cfg.Cores // one bank per mesh node (paper: 16 banks)
	bankBits := uint(0)
	for 1<<bankBits < nbanks {
		bankBits++
	}
	h.banks = make([]*cache.Array, nbanks)
	if cfg.Kind == VaultsShared {
		// Each bank is one latency-optimized vault, direct-mapped like the
		// private design, aggregate capacity shared by all cores.
		per := scaledPow2(cfg.VaultCapacity, cfg.Scale)
		h.vaults = make([]*vault.Vault, nbanks)
		for b := 0; b < nbanks; b++ {
			h.banks[b] = cache.NewBankedArray(per, 1, cache.LRU, bankBits, sys.lineBits)
			h.vaults[b] = vault.New(sys.engine, cfg.VaultTiming)
		}
	} else {
		per := scaledPow2(cfg.LLCSize, cfg.Scale) / int64(nbanks)
		for b := 0; b < nbanks; b++ {
			h.banks[b] = cache.NewBankedArray(per, cfg.LLCWays, cache.LRU, bankBits, sys.lineBits)
		}
	}
	if cfg.Kind == BaselineDRAM {
		dcCfg := cfg.DRAMCache
		dcCfg.SizeBytes = scaledPow2(dcCfg.SizeBytes, cfg.Scale)
		h.dramCache = dramcache.New(dcCfg)
	}
	return h
}

func (h *sharedHierarchy) stats() Stats { return h.st }

func (h *sharedHierarchy) lineTable() (entries, bytesPerSlot int) {
	return h.snoop.Entries(), h.snoop.BytesPerSlot()
}

// reserve sizes the snoop filter for n lines. The filter tracks only
// lines some private cache holds, so it never holds more than the
// private levels' total line count.
func (h *sharedHierarchy) reserve(n int) {
	privateLines := 0
	for c := range h.l1d {
		privateLines += int((h.l1i[c].SizeBytes() + h.l1d[c].SizeBytes()) / mem.LineSize)
		if h.l2 != nil {
			privateLines += int(h.l2[c].SizeBytes() / mem.LineSize)
		}
	}
	h.snoop.Reserve(min(n, privateLines))
}

// probeL2 probes an optional-L2 level (touching on a hit — both data
// paths treat an L2 hit as a use), reporting a miss when the level is
// absent. Shared by both hierarchies' data paths.
func probeL2(l2 []*cache.Array, core int, line mem.LineAddr) cache.Way {
	if l2 == nil {
		return cache.NoWay
	}
	return l2[core].ProbeTouch(line)
}

// bankOf address-interleaves lines across the LLC banks.
func (h *sharedHierarchy) bankOf(line mem.LineAddr) int {
	return cache.BankSelect(line, len(h.banks))
}

// llcLatency is the loaded round trip for one shared-LLC access by core:
// NoC out and back, fixed controller overhead, and the bank access (SRAM
// bank or vault with queueing).
func (h *sharedHierarchy) llcLatency(core, bank int, line mem.LineAddr, timing bool) sim.Cycle {
	if !timing {
		return 0
	}
	cfg := &h.sys.cfg
	lat := h.sys.mesh.RoundTrip(core, bank) + cfg.LLCFixedOverhead + cfg.LLCExtraLatency
	if h.vaults != nil {
		lat += h.vaults[bank].Access(line)
	} else {
		lat += cfg.LLCBankLatency
	}
	return lat
}

// ifetch: instruction lines are read-only and never tracked by the snoop
// filter (no store ever targets the code region).
func (h *sharedHierarchy) ifetch(core int, line mem.LineAddr, jump, timing bool) (sim.Cycle, bool) {
	if w := h.l1i[core].ProbeTouch(line); w != cache.NoWay {
		return 0, true
	}
	if !jump {
		// Sequential transition: the next-line prefetcher has the line in
		// flight; account the fill but charge no stall.
		h.fillIFetch(core, line, false)
		return 0, true
	}
	lat := h.fillIFetch(core, line, timing)
	return lat, false
}

// fillIFetch brings an instruction line into the L1-I through the LLC,
// returning the demand latency (0 in functional mode).
func (h *sharedHierarchy) fillIFetch(core int, line mem.LineAddr, timing bool) sim.Cycle {
	bank := h.bankOf(line)
	h.st.LLCAccesses++
	h.st.Reads++
	lat := h.llcLatency(core, bank, line, timing)
	if w := h.banks[bank].ProbeTouch(line); w != cache.NoWay {
		h.st.LocalHits++
	} else {
		h.st.Misses++
		lat += h.fillLLC(bank, line, cache.Shared, false, timing)
	}
	if h.l2 != nil {
		h.insertL2(core, line)
	}
	// fillIFetch is reached only after the L1-I probe in ifetch missed.
	h.l1i[core].InsertAt(line, cache.Shared)
	return lat
}

// data handles loads and stores.
func (h *sharedHierarchy) data(core int, addr mem.Addr, write, rwShared, nonTemporal, timing bool) (sim.Cycle, bool) {
	line := addr.Line()
	cfg := &h.sys.cfg

	if w := h.l1d[core].ProbeTouch(line); w != cache.NoWay {
		if !write {
			return 0, true
		}
		// Store hit: writable only if this core is the tracked dirty owner.
		if h.snoop.DirtyOwner(line) == core {
			return 0, true
		}
		// Upgrade at the LLC: invalidate peers, take ownership.
		return h.writeTransaction(core, line, rwShared, nonTemporal, timing), false
	}

	// Optional private L2. The L1 fill releases the displaced victim's
	// snoop tracking (as fillPrivate does for the LLC paths): a bare
	// insert here left the filter believing the victim's old owner still
	// held it, producing spurious forwards and invalidations.
	if w := probeL2(h.l2, core, line); w != cache.NoWay {
		_, ev, evicted := h.l1d[core].InsertAt(line, cache.Shared)
		if evicted {
			h.evictPrivate(core, ev.Line)
		}
		if write {
			if h.snoop.DirtyOwner(line) == core {
				return cfg.L2Latency, false
			}
			return cfg.L2Latency + h.writeTransaction(core, line, rwShared, nonTemporal, timing), false
		}
		if !timing {
			return 0, false
		}
		return cfg.L2Latency, false
	}

	// LLC access.
	if write {
		lat := h.writeTransaction(core, line, rwShared, nonTemporal, timing)
		h.fillPrivate(core, line)
		return lat, false
	}
	lat := h.readTransaction(core, line, rwShared, nonTemporal, timing)
	h.fillPrivate(core, line)
	return lat, false
}

// readTransaction performs an LLC read access with MESI handling.
func (h *sharedHierarchy) readTransaction(core int, line mem.LineAddr, rwShared, nonTemporal, timing bool) sim.Cycle {
	bank := h.bankOf(line)
	h.st.LLCAccesses++
	h.st.Reads++
	lat := h.llcLatency(core, bank, line, timing)

	forwarder, dirtied := h.snoop.Read(line, core)
	if forwarder >= 0 && timing {
		// Intervention: bank -> owner's L1 -> data back.
		lat += h.sys.mesh.RoundTrip(bank, forwarder) + 3
		h.st.Forwards++
	} else if forwarder >= 0 {
		h.st.Forwards++
	}

	if w := h.banks[bank].ProbeTouch(line); w != cache.NoWay {
		if dirtied {
			h.banks[bank].SetStateWay(w, cache.Modified)
		}
		h.st.LocalHits++
	} else {
		h.st.Misses++
		st := cache.Shared
		if dirtied {
			st = cache.Modified
		}
		lat += h.fillLLC(bank, line, st, nonTemporal, timing)
	}
	if rwShared && timing {
		lat *= sim.Cycle(h.sys.cfg.RWSharedMult)
	}
	return lat
}

// writeTransaction performs an LLC write/upgrade access: peers invalidate,
// the writer becomes dirty owner, the LLC copy is marked modified.
func (h *sharedHierarchy) writeTransaction(core int, line mem.LineAddr, rwShared, nonTemporal, timing bool) sim.Cycle {
	bank := h.bankOf(line)
	h.st.LLCAccesses++
	if rwShared {
		h.st.WritesRWShared++
	} else {
		h.st.WritesPrivate++
	}
	lat := h.llcLatency(core, bank, line, timing)

	invalidated, _ := h.snoop.WriteMask(line, core)
	if invalidated != 0 {
		h.st.Invalidations += uint64(bits.OnesCount32(invalidated))
		far := sim.Cycle(0)
		for m := invalidated; m != 0; m &= m - 1 {
			c := bits.TrailingZeros32(m)
			h.invalidatePrivate(c, line)
			if timing {
				if rt := h.sys.mesh.RoundTrip(bank, c); rt > far {
					far = rt
				}
			}
		}
		lat += far
	}

	if w := h.banks[bank].ProbeTouch(line); w != cache.NoWay {
		h.banks[bank].SetStateWay(w, cache.Modified)
		h.st.LocalHits++
	} else {
		h.st.Misses++
		lat += h.fillLLC(bank, line, cache.Modified, nonTemporal, timing)
	}
	if rwShared && timing {
		lat *= sim.Cycle(h.sys.cfg.RWSharedMult)
	}
	return lat
}

// fillLLC brings a line into an LLC bank from below (DRAM cache or
// memory), handling victim writeback. Returns the below-LLC latency.
func (h *sharedHierarchy) fillLLC(bank int, line mem.LineAddr, st cache.State, nonTemporal, timing bool) sim.Cycle {
	var lat sim.Cycle
	if h.dramCache != nil {
		// Perfect miss prediction: a DRAM-cache miss goes straight to
		// memory with no added latency; a hit is served at the DRAM-cache
		// access time.
		dlat, hit := h.dramCache.Access(mem.Addr(line))
		if hit {
			h.st.DRAMCacheHits++
			if timing {
				lat = dlat
			}
		} else {
			h.st.MemAccesses++
			if timing {
				lat = h.sys.mainMem.Access(line)
			}
		}
	} else {
		h.st.MemAccesses++
		if timing {
			lat = h.sys.mainMem.Access(line)
		}
	}
	// Every caller reaches here straight after a Probe miss on this bank,
	// so the fast-path insert may skip the duplicate scan.
	w, ev, evicted := h.banks[bank].InsertAt(line, st)
	if nonTemporal {
		h.banks[bank].DemoteWay(w)
	}
	if evicted && ev.Dirty() {
		h.st.MemWritebacks++
		if timing {
			h.sys.mainMem.Writeback(ev.Line)
		}
	}
	return lat
}

// fillPrivate installs a line into the core's L1-D (and L2), updating the
// snoop filter for the displaced victim. Callers reach it only after the
// L1-D probe at the top of data() missed, so the insert skips the
// duplicate scan.
func (h *sharedHierarchy) fillPrivate(core int, line mem.LineAddr) {
	if h.l2 != nil {
		h.insertL2(core, line)
	}
	_, ev, evicted := h.l1d[core].InsertAt(line, cache.Shared)
	if evicted {
		h.evictPrivate(core, ev.Line)
	}
}

// insertL2 installs a line into the core's L2, releasing the victim's
// snoop tracking when it is in neither L1 nor L2 afterwards.
func (h *sharedHierarchy) insertL2(core int, line mem.LineAddr) {
	if w := h.l2[core].ProbeTouch(line); w != cache.NoWay {
		return
	}
	_, ev, evicted := h.l2[core].InsertAt(line, cache.Shared)
	if evicted {
		h.evictPrivate(core, ev.Line)
	}
}

// evictPrivate tells the snoop filter a line left one private cache level,
// but only when it is gone from all of the core's levels.
func (h *sharedHierarchy) evictPrivate(core int, line mem.LineAddr) {
	if h.l1d[core].Contains(line) || h.l1i[core].Contains(line) {
		return
	}
	if h.l2 != nil && h.l2[core].Contains(line) {
		return
	}
	h.snoop.Evict(line, core, false)
}

// invalidatePrivate removes a line from every private level of a core.
func (h *sharedHierarchy) invalidatePrivate(core int, line mem.LineAddr) {
	h.l1d[core].Invalidate(line)
	if h.l2 != nil {
		h.l2[core].Invalidate(line)
	}
}

func (h *sharedHierarchy) check() string {
	if msg := h.snoop.CheckInvariants(); msg != "" {
		return msg
	}
	// L1 occupancy never exceeds the (scaled) capacity.
	for c := 0; c < h.sys.cfg.Cores; c++ {
		if h.l1d[c].Occupied() > int(h.l1d[c].SizeBytes()/mem.LineSize) {
			return fmt.Sprintf("core %d L1D over capacity", c)
		}
	}
	// Filter-vs-contents cross-check: every tracked (line, core) pair must
	// correspond to a resident copy in that core's private levels. A stale
	// entry makes the filter "forward" from a cache that no longer holds
	// the line, inflating coherence traffic and latency.
	msg := ""
	h.snoop.ForEachEntry(func(line mem.LineAddr, mask uint32, owner int) {
		if msg != "" {
			return
		}
		for c := 0; c < h.sys.cfg.Cores; c++ {
			if mask&(1<<uint(c)) == 0 {
				continue
			}
			if h.l1d[c].Contains(line) || h.l1i[c].Contains(line) {
				continue
			}
			if h.l2 != nil && h.l2[c].Contains(line) {
				continue
			}
			msg = fmt.Sprintf("line %#x: snoop filter tracks core %d (owner %d) but no private cache holds it",
				uint64(line), c, owner)
			return
		}
	})
	return msg
}
