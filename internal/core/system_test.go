package core

import (
	"testing"

	simc "repro/internal/sim"
	"repro/internal/workload"
)

// quick builds a small, fast system for unit testing: 4 cores, heavy scale.
func quickConfig(kind Kind) Config {
	var c Config
	switch kind {
	case Baseline:
		c = BaselineConfig(4)
	case BaselineDRAM:
		c = BaselineDRAMConfig(4)
	case SILO:
		c = SILOConfig(4)
	case SILOCO:
		c = SILOCOConfig(4)
	case VaultsShared:
		c = VaultsSharedConfig(4)
	}
	c.Scale = 64
	return c
}

func allKinds() []Kind {
	return []Kind{Baseline, BaselineDRAM, SILO, SILOCO, VaultsShared}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Baseline: "Baseline", BaselineDRAM: "Baseline+DRAM$", SILO: "SILO",
		SILOCO: "SILO-CO", VaultsShared: "Vaults-Sh",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	if !SILO.Private() || !SILOCO.Private() || Baseline.Private() || VaultsShared.Private() {
		t.Error("Private() misclassifies")
	}
}

func TestConfigValidation(t *testing.T) {
	good := BaselineConfig(16)
	good.Validate()
	bad := []func() Config{
		func() Config { c := BaselineConfig(16); c.Cores = 0; return c },
		func() Config { c := BaselineConfig(16); c.Scale = 0; return c },
		func() Config { c := BaselineConfig(16); c.LLCSize = 0; return c },
		func() Config { c := SILOConfig(16); c.VaultCapacity = 0; return c },
		func() Config { c := BaselineDRAMConfig(16); c.DRAMCache.SizeBytes = 0; return c },
		func() Config { c := BaselineConfig(16); c.RWSharedMult = 0; return c },
		func() Config { c := SILOConfig(16); c.GenThreads = 1; return c },
	}
	for i, mk := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			c := mk()
			c.Validate()
		}()
	}
}

func TestMeshDims(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 8: {4, 2}, 16: {4, 4}, 32: {8, 4}}
	for cores, want := range cases {
		w, h := meshDims(cores)
		if w != want[0] || h != want[1] {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", cores, w, h, want[0], want[1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unsupported core count")
		}
	}()
	meshDims(7)
}

func TestScaledPow2(t *testing.T) {
	cases := []struct {
		bytes, scale, want int64
	}{
		{8 << 20, 16, 512 << 10},
		{256 << 20, 16, 16 << 20},
		{512 << 10, 16, 32 << 10},
		{8 << 30, 16, 512 << 20},
		{64 << 10, 16, 4096}, // clamped to the floor
	}
	for _, c := range cases {
		if got := scaledPow2(c.bytes, c.scale); got != c.want {
			t.Errorf("scaledPow2(%d,%d) = %d, want %d", c.bytes, c.scale, got, c.want)
		}
	}
}

func TestAllSystemsRunAndRetire(t *testing.T) {
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			sys := NewSystem(quickConfig(kind), []workload.Spec{workload.WebSearch()})
			sys.WarmFunctional(20000)
			m := sys.Run(2000, 10000)
			if m.Retired == 0 {
				t.Fatal("no instructions retired")
			}
			if m.IPC() <= 0 || m.IPC() > 3*4 {
				t.Fatalf("implausible aggregate IPC %v", m.IPC())
			}
			for c := 0; c < 4; c++ {
				if m.PerCoreRetired[c] == 0 {
					t.Fatalf("core %d retired nothing", c)
				}
			}
			if msg := sys.CheckInvariants(); msg != "" {
				t.Fatalf("invariant violated: %s", msg)
			}
		})
	}
}

// Conservation: hits + misses = LLC accesses for every system.
func TestAccessConservation(t *testing.T) {
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			sys := NewSystem(quickConfig(kind), []workload.Spec{workload.DataServing()})
			sys.WarmFunctional(20000)
			m := sys.Run(2000, 10000)
			s := m.Stats
			if s.LocalHits+s.RemoteHits+s.Misses != s.LLCAccesses {
				t.Fatalf("hits(%d+%d)+misses(%d) != accesses(%d)",
					s.LocalHits, s.RemoteHits, s.Misses, s.LLCAccesses)
			}
			if s.Reads+s.WritesPrivate+s.WritesRWShared != s.LLCAccesses {
				t.Fatalf("type breakdown %d+%d+%d != accesses %d",
					s.Reads, s.WritesPrivate, s.WritesRWShared, s.LLCAccesses)
			}
		})
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	for _, kind := range []Kind{Baseline, SILO} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			run := func() Metrics {
				sys := NewSystem(quickConfig(kind), []workload.Spec{workload.SATSolver()})
				sys.WarmFunctional(20000)
				return sys.Run(2000, 10000)
			}
			a, b := run(), run()
			if a.Retired != b.Retired || a.Stats != b.Stats {
				t.Fatalf("nondeterministic: %+v vs %+v", a, b)
			}
		})
	}
}

// Shared-LLC systems report no remote hits; SILO on a sharing workload
// reports some.
func TestHitLocality(t *testing.T) {
	base := NewSystem(quickConfig(Baseline), []workload.Spec{workload.DataServing()})
	base.WarmFunctional(20000)
	mb := base.Run(2000, 10000)
	if mb.Stats.RemoteHits != 0 {
		t.Fatalf("baseline reported %d remote hits", mb.Stats.RemoteHits)
	}
	silo := NewSystem(quickConfig(SILO), []workload.Spec{workload.DataServing()})
	silo.WarmFunctional(200000)
	ms := silo.Run(2000, 10000)
	if ms.Stats.RemoteHits == 0 {
		t.Fatal("SILO on Data Serving should see remote vault hits")
	}
	if ms.Stats.LocalHits <= ms.Stats.RemoteHits {
		t.Fatal("local hits should dominate remote hits")
	}
}

// SILO's private vaults capture the secondary working set that the 8MB
// shared LLC cannot: its miss count must be lower and its IPC higher.
func TestSILOBeatsBaselineOnScaleOut(t *testing.T) {
	run := func(kind Kind) Metrics {
		sys := NewSystem(quickConfig(kind), []workload.Spec{workload.SATSolver()})
		sys.Prewarm()
		sys.WarmFunctional(100000)
		return sys.Run(5000, 30000)
	}
	mb, ms := run(Baseline), run(SILO)
	if ms.IPC() <= mb.IPC() {
		t.Fatalf("SILO IPC %.3f should beat baseline %.3f", ms.IPC(), mb.IPC())
	}
	if ms.MissRate() >= mb.MissRate() {
		t.Fatalf("SILO miss rate %.3f should be below baseline %.3f", ms.MissRate(), mb.MissRate())
	}
}

// The ideal optimizations can only help.
func TestOptimizationsDoNotHurt(t *testing.T) {
	run := func(mp, dc bool) Metrics {
		cfg := quickConfig(SILO)
		cfg.LocalMissPredictor = mp
		cfg.DirectoryCache = dc
		sys := NewSystem(cfg, []workload.Spec{workload.DataServing()})
		sys.WarmFunctional(30000)
		return sys.Run(2000, 20000)
	}
	noOpt := run(false, false)
	both := run(true, true)
	if both.IPC() < noOpt.IPC()*0.995 {
		t.Fatalf("ideal optimizations reduced IPC: %.4f -> %.4f", noOpt.IPC(), both.IPC())
	}
}

// Raising the shared-LLC latency must not raise throughput.
func TestLLCLatencySensitivity(t *testing.T) {
	run := func(extra int) float64 {
		cfg := quickConfig(Baseline)
		cfg.LLCExtraLatency = simc.Cycle(extra)
		sys := NewSystem(cfg, []workload.Spec{workload.WebSearch()})
		sys.WarmFunctional(30000)
		return sys.Run(2000, 20000).IPC()
	}
	fast, slow := run(0), run(23)
	if slow >= fast {
		t.Fatalf("doubling LLC latency should cost performance: %.3f -> %.3f", fast, slow)
	}
}

// Mixed workloads: each core can run a different spec.
func TestPerCoreWorkloads(t *testing.T) {
	specs := []workload.Spec{
		workload.Spec2006("mcf"),
		workload.Spec2006("gamess"),
		workload.Spec2006("lbm"),
		workload.Spec2006("povray"),
	}
	sys := NewSystem(quickConfig(SILO), specs)
	sys.WarmFunctional(20000)
	m := sys.Run(2000, 10000)
	// gamess (compute-bound) should retire more than mcf (memory-bound).
	if m.PerCoreRetired[1] <= m.PerCoreRetired[0] {
		t.Fatalf("compute-bound core (%d) should outpace memory-bound (%d)",
			m.PerCoreRetired[1], m.PerCoreRetired[0])
	}
}

func TestSpecCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSystem(quickConfig(SILO), []workload.Spec{workload.WebSearch(), workload.DataServing()})
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{
		Cycles:         1000,
		Retired:        3000,
		PerCoreRetired: []uint64{1000, 2000},
		Stats:          Stats{LLCAccesses: 100, LocalHits: 60, RemoteHits: 10, Misses: 30},
	}
	if m.IPC() != 3.0 {
		t.Fatalf("IPC = %v", m.IPC())
	}
	if m.CoreIPC(1) != 2.0 {
		t.Fatalf("CoreIPC = %v", m.CoreIPC(1))
	}
	if m.RangeIPC(0, 1) != 1.0 {
		t.Fatalf("RangeIPC = %v", m.RangeIPC(0, 1))
	}
	if m.LLCHitRate() != 0.7 || m.MissRate() != 0.3 {
		t.Fatalf("hit/miss rates wrong: %v %v", m.LLCHitRate(), m.MissRate())
	}
	var zero Metrics
	if zero.IPC() != 0 || zero.LLCHitRate() != 0 || zero.MissRate() != 0 {
		t.Fatal("zero metrics should not divide by zero")
	}
}
