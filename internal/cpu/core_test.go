package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fakeHierarchy gives deterministic, scriptable memory behaviour.
type fakeHierarchy struct {
	engine      *sim.Engine
	ifetchMiss  bool      // jumps miss when true
	dataMissLat sim.Cycle // 0 = everything hits
	ifetchLat   sim.Cycle
	dataAccess  uint64
	ifetchCalls uint64
}

func (f *fakeHierarchy) IFetch(core int, line mem.LineAddr, jump bool) (sim.Cycle, bool) {
	f.ifetchCalls++
	if !f.ifetchMiss || !jump || f.ifetchLat == 0 {
		return 0, true
	}
	return f.ifetchLat, false
}

func (f *fakeHierarchy) Data(core int, addr mem.Addr, write, rwShared, independent, nonTemporal bool) (sim.Cycle, bool) {
	f.dataAccess++
	if f.dataMissLat == 0 {
		return 0, true
	}
	return f.dataMissLat, false
}

func testSpec(mlp int, indep float64) workload.Spec {
	s := workload.WebSearch()
	s.MLP = mlp
	s.IndepProb = indep
	return s
}

func run(t *testing.T, spec workload.Spec, h *fakeHierarchy, cycles sim.Cycle) *Core {
	t.Helper()
	e := h.engine
	stream := workload.NewStream(spec, 0, 1, 16, 42)
	c := New(e, 0, DefaultConfig(), stream, h)
	c.Start()
	e.Run(cycles)
	return c
}

func TestAllHitIPCIsWidth(t *testing.T) {
	e := sim.NewEngine()
	h := &fakeHierarchy{engine: e}
	c := run(t, testSpec(2, 0.5), h, 10000)
	ipc := float64(c.Retired) / 10000
	// Everything hits: the core should sustain close to its width of 3.
	if ipc < 2.9 || ipc > 3.05 {
		t.Fatalf("all-hit IPC = %v, want ~3", ipc)
	}
}

func TestMissLatencyReducesIPC(t *testing.T) {
	e1 := sim.NewEngine()
	fast := &fakeHierarchy{engine: e1, dataMissLat: 23}
	c1 := run(t, testSpec(2, 0.3), fast, 50000)

	e2 := sim.NewEngine()
	slow := &fakeHierarchy{engine: e2, dataMissLat: 100}
	c2 := run(t, testSpec(2, 0.3), slow, 50000)

	if c2.Retired >= c1.Retired {
		t.Fatalf("higher miss latency should lower throughput: %d vs %d", c2.Retired, c1.Retired)
	}
	// With every data op missing at low MLP, the slowdown should be large.
	ratio := float64(c1.Retired) / float64(c2.Retired)
	if ratio < 2 {
		t.Fatalf("23 vs 100-cycle misses only changed throughput by %.2fx", ratio)
	}
}

func TestMLPHidesLatency(t *testing.T) {
	// Same miss latency, independent accesses: MLP 4 should beat MLP 1.
	e1 := sim.NewEngine()
	h1 := &fakeHierarchy{engine: e1, dataMissLat: 100}
	c1 := run(t, testSpec(1, 0.9), h1, 50000)

	e2 := sim.NewEngine()
	h2 := &fakeHierarchy{engine: e2, dataMissLat: 100}
	c2 := run(t, testSpec(4, 0.9), h2, 50000)

	if float64(c2.Retired) < 1.5*float64(c1.Retired) {
		t.Fatalf("MLP 4 (%d retired) should clearly beat MLP 1 (%d)", c2.Retired, c1.Retired)
	}
}

func TestDependentMissesBlock(t *testing.T) {
	// All-dependent misses: every miss blocks regardless of MLP.
	e := sim.NewEngine()
	h := &fakeHierarchy{engine: e, dataMissLat: 50}
	c := run(t, testSpec(8, 0.0), h, 50000)
	if c.Overlapped != 0 {
		t.Fatalf("dependent misses overlapped %d times", c.Overlapped)
	}
	if c.DataBlocks == 0 {
		t.Fatal("expected blocking misses")
	}
}

func TestIFetchMissesBlock(t *testing.T) {
	e := sim.NewEngine()
	h := &fakeHierarchy{engine: e, ifetchMiss: true, ifetchLat: 23}
	spec := testSpec(2, 0.5)
	c := run(t, spec, h, 50000)
	if c.IFetchStall == 0 {
		t.Fatal("expected ifetch stalls")
	}
	// Throughput is below width because of frontend stalls.
	ipc := float64(c.Retired) / 50000
	if ipc >= 2.9 {
		t.Fatalf("ifetch-stalled IPC = %v, should be well below 3", ipc)
	}
}

// Regression test: the op whose instruction fetch misses must still retire
// after the stall resolves. The buggy path consumed the op from the stream,
// blocked on the fetch, and then fetched the *next* op on resume — so every
// ifetch stall silently dropped one instruction (and its memory access).
func TestIFetchStallDoesNotDropOps(t *testing.T) {
	e := sim.NewEngine()
	h := &fakeHierarchy{engine: e, ifetchMiss: true, ifetchLat: 23}
	spec := testSpec(2, 0.5)
	stream := workload.NewStream(spec, 0, 1, 16, 42)
	c := New(e, 0, DefaultConfig(), stream, h)
	c.Start()
	e.Run(50000)
	if c.IFetchStall == 0 {
		t.Fatal("scenario produced no ifetch stalls")
	}
	// Every op consumed from the batch buffer must have retired, except at
	// most the one op stashed while its fetch stall is still in flight.
	consumed := c.Consumed
	if consumed-c.Retired > 1 {
		t.Fatalf("dropped %d of %d consumed ops across %d ifetch stalls (retired %d)",
			consumed-c.Retired, consumed, c.IFetchStall, c.Retired)
	}
	// The stream runs ahead of consumption by at most one pre-generated
	// batch (the refill is lazy).
	if ahead := stream.Generated() - consumed; ahead > opBatch {
		t.Fatalf("stream generated %d ops ahead of consumption, want <= one %d-op batch", ahead, opBatch)
	}
}

// The stalled op's memory access must issue once the fetch resolves: a
// dropped op under-reports data traffic, not just retirement.
func TestIFetchStallPreservesDataAccesses(t *testing.T) {
	e := sim.NewEngine()
	h := &fakeHierarchy{engine: e, ifetchMiss: true, ifetchLat: 23}
	spec := testSpec(2, 0.5)
	spec.MemRatio = 0.99 // nearly every op carries a data access
	stream := workload.NewStream(spec, 0, 1, 16, 42)
	c := New(e, 0, DefaultConfig(), stream, h)
	c.Start()
	e.Run(50000)
	if c.IFetchStall == 0 {
		t.Fatal("scenario produced no ifetch stalls")
	}
	// With MemRatio 0.99, ~99% of consumed ops must issue a data access.
	// Dropping the stalled op kills its access too: the buggy path loses
	// one per stall (~1.3% here), pushing the issued count below 98% of
	// consumption; the fixed path stays at ~99%.
	consumed := c.Consumed
	if h.dataAccess < uint64(float64(consumed)*0.98) {
		t.Fatalf("issued %d data accesses for %d consumed ops (%.1f%%) across %d stalls",
			h.dataAccess, consumed, 100*float64(h.dataAccess)/float64(consumed), c.IFetchStall)
	}
}

func TestOutstandingNeverExceedsMLP(t *testing.T) {
	e := sim.NewEngine()
	h := &fakeHierarchy{engine: e, dataMissLat: 200}
	spec := testSpec(3, 1.0) // fully independent
	stream := workload.NewStream(spec, 0, 1, 16, 7)
	c := New(e, 0, DefaultConfig(), stream, h)
	c.Start()
	for i := 0; i < 200000 && e.Step(); i++ {
		if c.outstanding > 3 {
			t.Fatalf("outstanding %d exceeds MLP 3", c.outstanding)
		}
	}
	if c.DataBlocks == 0 {
		t.Fatal("MLP window never filled; test not exercising the limit")
	}
}

func TestDeterministicExecution(t *testing.T) {
	mk := func() uint64 {
		e := sim.NewEngine()
		h := &fakeHierarchy{engine: e, dataMissLat: 23, ifetchMiss: true, ifetchLat: 23}
		c := run(t, testSpec(2, 0.4), h, 30000)
		return c.Retired
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("nondeterministic execution: %d vs %d", a, b)
	}
}

func TestNewPanics(t *testing.T) {
	e := sim.NewEngine()
	stream := workload.NewStream(testSpec(2, 0.5), 0, 1, 16, 1)
	h := &fakeHierarchy{engine: e}
	for i, fn := range []func(){
		func() { New(e, 0, Config{Width: 0, Burst: 48}, stream, h) },
		func() { New(e, 0, Config{Width: 3, Burst: 0}, stream, h) },
		func() { New(e, 0, DefaultConfig(), nil, h) },
		func() { New(e, 0, DefaultConfig(), stream, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
	c := New(e, 0, DefaultConfig(), stream, h)
	c.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start should panic")
		}
	}()
	c.Start()
}
