package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/workload"
)

// groupSources is a 16-core scenario: cores 0-7 run one client in
// sharing group 0, cores 8-15 another in group g.
func groupSources(cfg Config, g int) []workload.Source {
	phases := []workload.Phase{
		{Spec: workload.WebSearch(), Arrival: workload.Arrival{Process: workload.ArrivalPoisson, MeanOps: 4000}},
		{Spec: workload.DataServing(), Arrival: workload.Arrival{MeanOps: 3000}},
	}
	sources := make([]workload.Source, cfg.Cores)
	for c := range sources {
		group, seq := 0, uint64(0)
		if c >= cfg.Cores/2 {
			group, seq = g, 1
		}
		sources[c] = workload.NewPhased(phases[seq:], c%(cfg.Cores/2), cfg.Cores/2, cfg.Scale, cfg.Seed, seq, workload.GroupOffset(group))
	}
	return sources
}

// boundOf reports whether a holds line addresses exactly lineBits wide:
// it takes the top line of that width and panics one line past it.
func boundOf(a *cache.Array, lineBits uint) (ok bool) {
	top := mem.LineAddr(1<<lineBits-1) * mem.LineSize
	if a.Contains(top) {
		return false
	}
	a.InsertAt(top, cache.Shared)
	if !a.Contains(top) {
		return false
	}
	defer func() { ok = recover() != nil }()
	a.InsertAt(top+mem.LineSize, cache.Shared)
	return false
}

// TestLineBitsFollowSources: a system's line-address width is what its
// sources' AddrLimit needs — 35 bits for a synthetic system of 16 cores
// (every perfbench system), 36 for 32, up to 38 for sharing groups 0-3
// and 40 for group 15. It bounds the vaults and LLC banks, whose packed
// slots it sizes (lineBits − log2 sets + 3 bits), and picks the snoop
// filter's store: the 8-byte quotient table up to 38 bits and 16 cores,
// the 16-byte open table beyond.
func TestLineBitsFollowSources(t *testing.T) {
	synthetic := func(kind Kind, cores int) func() *System {
		return func() *System {
			cfg := quickConfig(kind)
			cfg.Cores, cfg.Scale = cores, 32
			return NewSystem(cfg, []workload.Spec{workload.WebSearch()})
		}
	}
	scenario := func(kind Kind, g int) func() *System {
		return func() *System {
			cfg := quickConfig(kind)
			cfg.Cores, cfg.Scale = 16, 32
			return NewSystemFromSources(cfg, groupSources(cfg, g))
		}
	}
	for _, c := range []struct {
		name       string
		build      func() *System
		lineBits   uint
		snoopBytes int // 0 for SILO, which has no snoop filter
	}{
		{"SILO-16", synthetic(SILO, 16), 35, 0},
		{"SILO-32", synthetic(SILO, 32), 36, 0},
		{"VaultsShared-16", synthetic(VaultsShared, 16), 35, 8},
		{"Baseline-16", synthetic(Baseline, 16), 35, 8},
		{"Baseline-32", synthetic(Baseline, 32), 36, 16},
		{"Baseline-group3", scenario(Baseline, 3), 38, 8},
		{"Baseline-group4", scenario(Baseline, 4), 39, 16},
		{"Baseline-group15", scenario(Baseline, 15), 40, 16},
		{"SILO-group15", scenario(SILO, 15), 40, 0},
	} {
		sys := c.build()
		if _, bytes := sys.LineTable(); sys.lineBits != c.lineBits || bytes != c.snoopBytes {
			t.Fatalf("%s: %d-bit line addresses and %d-byte snoop slots, want %d and %d",
				c.name, sys.lineBits, bytes, c.lineBits, c.snoopBytes)
		}
		var llc *cache.Array
		switch h := sys.hier.(type) {
		case *privateHierarchy:
			llc = h.vaultArr[len(h.vaultArr)-1]
		case *sharedHierarchy:
			llc = h.banks[0]
		}
		if !boundOf(llc, c.lineBits) {
			t.Fatalf("%s: the LLC does not hold exactly %d-bit line addresses", c.name, c.lineBits)
		}
	}
}

// TestSharingGroup15 runs a 16-core scenario whose clients sit in
// sharing groups 0 and 15 on the shared-LLC hierarchies and SILO: the
// snoop filter's keys and the cache tags must hold group 15's line
// addresses (the quotient table's 38-bit keys cannot), and every system
// must pass CheckInvariants after Prewarm, a functional warm-up and a
// measured window.
func TestSharingGroup15(t *testing.T) {
	for _, kind := range []Kind{Baseline, BaselineDRAM, VaultsShared, SILO} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := quickConfig(kind)
			cfg.Cores, cfg.Scale = 16, 64
			sys := NewSystemFromSources(cfg, groupSources(cfg, workload.MaxGroups-1))
			sys.Prewarm()
			sys.WarmFunctional(20_000)
			if m := sys.Run(2_000, 8_000); m.Retired == 0 {
				t.Fatal("no instructions retired")
			}
			if msg := sys.CheckInvariants(); msg != "" {
				t.Fatalf("invariants: %s", msg)
			}
		})
	}
}
