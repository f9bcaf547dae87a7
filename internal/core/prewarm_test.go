package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/workload"
)

// oraclePrewarm is the reference Prewarm: the materialising walk it
// replaced. Each core's footprint is expanded into address and kind
// slices up front, then replayed 1024 lines per core per round, with no
// line-table reservation.
func oraclePrewarm(s *System) {
	const chunk = 1024
	addrs := make([][]mem.Addr, s.cfg.Cores)
	instr := make([][]bool, s.cfg.Cores)
	for c := range addrs {
		for _, r := range s.sources[c].Footprint() {
			for i := int64(0); i < r.Bytes; i += mem.LineSize {
				addrs[c] = append(addrs[c], r.Base+mem.Addr((r.Start+i)%r.Bytes))
				instr[c] = append(instr[c], r.Instr)
			}
		}
	}
	pos := make([]int, s.cfg.Cores)
	for remaining := true; remaining; {
		remaining = false
		for c := range addrs {
			end := min(pos[c]+chunk, len(addrs[c]))
			for ; pos[c] < end; pos[c]++ {
				if instr[c][pos[c]] {
					s.hier.ifetch(c, addrs[c][pos[c]].Line(), true, false)
				} else {
					s.hier.data(c, addrs[c][pos[c]], false, false, false, false)
				}
			}
			if pos[c] < len(addrs[c]) {
				remaining = true
			}
		}
	}
}

// cacheImage serialises every cache array of s — tags, states and LRU
// stamps, and so SILO's directory states — so two systems' cache
// contents compare byte for byte. A snoop filter's line table is left
// out: its slab layout records how it grew.
func cacheImage(s *System) []byte {
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	c := checkpoint.NewEncoder(w)
	switch h := s.hier.(type) {
	case *privateHierarchy:
		for _, arrs := range [][]*cache.Array{h.l1i, h.l1d, h.l2} {
			checkpointArrays(c, "level", arrs)
		}
		h.vaultTags.Checkpoint(c)
	case *sharedHierarchy:
		for _, arrs := range [][]*cache.Array{h.l1i, h.l1d, h.l2, h.banks} {
			checkpointArrays(c, "level", arrs)
		}
	}
	if err := w.Finish(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// scenarioSources is a small scenario over 4 cores: two cores of one
// client sharing group 1's address space, a different client alone in
// group 0, and a trace replay in group 2 (no footprint to prewarm).
func scenarioSources(cfg Config) []workload.Source {
	phases := []workload.Phase{
		{Spec: workload.WebSearch(), Arrival: workload.Arrival{Process: workload.ArrivalPoisson, MeanOps: 4000}},
		{Spec: workload.DataServing(), Arrival: workload.Arrival{MeanOps: 3000}},
	}
	rec := workload.NewStream(workload.MapReduce(), 0, 1, cfg.Scale, 9)
	ops := make([]workload.Op, 20_000)
	rec.NextBatch(ops)
	return []workload.Source{
		workload.NewPhased(phases, 0, 2, cfg.Scale, cfg.Seed, 0, workload.GroupOffset(1)),
		workload.NewPhased(phases, 1, 2, cfg.Scale, cfg.Seed, 0, workload.GroupOffset(1)),
		workload.NewPhased(phases[1:], 0, 1, cfg.Scale, cfg.Seed, 1, workload.GroupOffset(0)),
		workload.NewTraceSource("mapreduce", 2, ops, workload.GroupOffset(2), 0),
	}
}

// TestPrewarmMatchesOracle: the streamed, reserved Prewarm leaves every
// system in the state the materialising walk does — the same counters,
// line-table occupancy and cache arrays down to the LRU stamps — and
// after the same functional warm-up both give identical measured
// windows and healthy invariants. It covers all five kinds at Scale 32
// on 8-core WebSearch and a scenario with sharing-group offsets and a
// trace replay.
func TestPrewarmMatchesOracle(t *testing.T) {
	type build func() *System
	cases := map[string]build{}
	for _, kind := range allKinds() {
		cfg := quickConfig(kind)
		cfg.Cores, cfg.Scale = 8, 32
		cases[kind.String()] = func() *System {
			return NewSystem(cfg, []workload.Spec{workload.WebSearch()})
		}
	}
	for _, kind := range []Kind{SILO, Baseline} {
		cfg := quickConfig(kind)
		cfg.Scale = 32
		cases["scenario-"+kind.String()] = func() *System {
			return NewSystemFromSources(cfg, scenarioSources(cfg))
		}
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			got, want := mk(), mk()
			got.Prewarm()
			oraclePrewarm(want)
			if g, w := got.hier.stats(), want.hier.stats(); g != w {
				t.Fatalf("stats after prewarm diverge:\n got %+v\nwant %+v", g, w)
			}
			ge, _ := got.LineTable()
			we, _ := want.LineTable()
			if ge != we {
				t.Fatalf("line table after prewarm holds %d entries, oracle %d", ge, we)
			}
			if !bytes.Equal(cacheImage(got), cacheImage(want)) {
				t.Fatal("cache arrays after prewarm diverge")
			}
			got.WarmFunctional(20_000)
			want.WarmFunctional(20_000)
			gm, wm := got.Run(2_000, 8_000), want.Run(2_000, 8_000)
			if !reflect.DeepEqual(gm, wm) {
				t.Fatalf("windows diverge:\n got %+v\nwant %+v", gm, wm)
			}
			if msg := got.CheckInvariants(); msg != "" {
				t.Fatalf("invariants after Prewarm: %s", msg)
			}
		})
	}
}

// TestPrewarmAllocation: Prewarm allocates a snoop filter's line table
// once, at its final size, and materialises no footprint. On a 16-core
// Scale-32 WebSearch system SILO allocates next to nothing (its
// directory is the vault slots); the Baseline snoop filter's reservation
// is capped at the private caches' few thousand lines.
func TestPrewarmAllocation(t *testing.T) {
	for _, tc := range []struct {
		kind  Kind
		limit uint64
	}{
		{SILO, 64 << 10},
		{Baseline, 256 << 10},
	} {
		cfg := quickConfig(tc.kind)
		cfg.Cores, cfg.Scale = 16, 32
		sys := NewSystem(cfg, []workload.Spec{workload.WebSearch()})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys.Prewarm()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
			t.Errorf("%v: Prewarm allocated %d bytes, want at most %d", tc.kind, got, tc.limit)
		}
	}
}
