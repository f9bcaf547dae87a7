package vault

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func line(n uint64) mem.LineAddr { return mem.LineAddr(n * mem.LineSize) }

// unloadedLatency is the conflict-free access latency.
func unloadedLatency(c Config) sim.Cycle {
	return c.ControllerCycles + c.ArrayCycles + c.SerializeCycles
}

func TestTable2Latencies(t *testing.T) {
	if got := unloadedLatency(LatencyOptimized()); got != 23 {
		t.Errorf("latency-optimized vault = %d cycles, want 23", got)
	}
	if got := unloadedLatency(CapacityOptimized()); got != 32 {
		t.Errorf("capacity-optimized vault = %d cycles, want 32", got)
	}
}

func TestAccessUnloaded(t *testing.T) {
	e := sim.NewEngine()
	v := New(e, LatencyOptimized())
	if got := v.Access(line(0)); got != 23 {
		t.Fatalf("unloaded access = %d, want 23", got)
	}
	if v.Accesses != 1 || v.Conflicts != 0 {
		t.Fatalf("stats = %d accesses %d conflicts", v.Accesses, v.Conflicts)
	}
}

func TestBankConflictQueues(t *testing.T) {
	e := sim.NewEngine()
	v := New(e, LatencyOptimized())
	// Two back-to-back accesses to the same bank (same line): the second
	// queues for the full array time.
	first := v.Access(line(0))
	second := v.Access(line(0))
	if second != first+11 {
		t.Fatalf("conflicting access = %d, want %d", second, first+11)
	}
	if v.Conflicts != 1 || v.QueueCycles != 11 {
		t.Fatalf("conflicts=%d queue=%d, want 1, 11", v.Conflicts, v.QueueCycles)
	}
}

func TestDifferentBanksDoNotConflict(t *testing.T) {
	e := sim.NewEngine()
	v := New(e, LatencyOptimized())
	// Consecutive lines interleave across banks.
	a := v.Access(line(0))
	b := v.Access(line(1))
	if a != 23 || b != 23 {
		t.Fatalf("parallel bank accesses = %d, %d; want 23, 23", a, b)
	}
}

func TestBankFreesOverTime(t *testing.T) {
	e := sim.NewEngine()
	v := New(e, LatencyOptimized())
	v.Access(line(0))
	// After the bank's busy window passes, no conflict.
	e.Run(40)
	if got := v.Access(line(0)); got != 23 {
		t.Fatalf("post-drain access = %d, want 23", got)
	}
	if v.Conflicts != 0 {
		t.Fatal("unexpected conflict after drain")
	}
}

func TestMetadataAccessSkipsSerialization(t *testing.T) {
	e := sim.NewEngine()
	v := New(e, LatencyOptimized())
	if got := v.MetadataAccess(line(0)); got != 15 { // 4 controller + 11 array
		t.Fatalf("metadata access = %d, want 15", got)
	}
}

func TestMetadataAndDataShareBanks(t *testing.T) {
	e := sim.NewEngine()
	v := New(e, LatencyOptimized())
	v.MetadataAccess(line(0))
	got := v.Access(line(0))
	if got != 23+11 {
		t.Fatalf("data access behind metadata = %d, want 34", got)
	}
}

func TestManyConflictsAccumulate(t *testing.T) {
	e := sim.NewEngine()
	v := New(e, LatencyOptimized())
	for i := 0; i < 4; i++ {
		v.Access(line(0))
	}
	// Accesses serialize on the bank: latencies 23, 34, 45, 56.
	if v.Conflicts != 3 || v.QueueCycles != 11+22+33 {
		t.Fatalf("conflicts=%d queue=%d, want 3, 66", v.Conflicts, v.QueueCycles)
	}
}

func TestNewPanics(t *testing.T) {
	e := sim.NewEngine()
	for _, cfg := range []Config{
		{Banks: 0, ArrayCycles: 11},
		{Banks: 3, ArrayCycles: 11},
		{Banks: 8, ArrayCycles: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", cfg)
				}
			}()
			New(e, cfg)
		}()
	}
}
