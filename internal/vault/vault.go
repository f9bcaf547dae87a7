// Package vault models the timing of a die-stacked DRAM vault: an
// HMC-style vertical partition of the DRAM stack with its own controller on
// the CPU die (paper Sec. III). A vault access pays
//
//	controller delay + bank queueing + array access + TAD serialization
//
// Banks operate under a closed-page policy (paper Sec. VI-A): every access
// is a full activate/read/precharge, so a bank is busy for the array access
// time and queueing arises only from bank conflicts. The 64-bit data
// interface adds 8 cycles of serialization for a TAD (tag+data) unit
// (paper Sec. VI-A: 11-cycle array + 4-cycle controller + 8-cycle
// serialization = 23-cycle total for the latency-optimized vault).
package vault

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Config sizes a vault's timing model.
type Config struct {
	Banks            int       // independent DRAM banks (power of two)
	ArrayCycles      sim.Cycle // closed-page array access (bank busy time)
	ControllerCycles sim.Cycle // vault controller pipeline
	SerializeCycles  sim.Cycle // TAD transfer over the 64-bit interface
}

// LatencyOptimized is the SILO vault timing (paper Table II: 23-cycle
// total vault access for the 256 MB latency-optimized design).
func LatencyOptimized() Config {
	return Config{Banks: 32, ArrayCycles: 11, ControllerCycles: 4, SerializeCycles: 8}
}

// CapacityOptimized is the SILO-CO vault timing (paper Table II: 32-cycle
// total for the 512 MB capacity-optimized design).
func CapacityOptimized() Config {
	return Config{Banks: 8, ArrayCycles: 20, ControllerCycles: 4, SerializeCycles: 8}
}

// Vault tracks per-bank busy times and accumulates access statistics.
type Vault struct {
	cfg      Config
	engine   *sim.Engine
	bankFree []sim.Cycle

	Accesses    uint64
	Conflicts   uint64    // accesses that queued behind a busy bank
	QueueCycles sim.Cycle // total cycles spent queueing
}

// New builds a vault. Banks must be a positive power of two.
func New(engine *sim.Engine, cfg Config) *Vault {
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		panic(fmt.Sprintf("vault: bank count %d not a positive power of two", cfg.Banks))
	}
	if cfg.ArrayCycles == 0 {
		panic("vault: zero array access time")
	}
	return &Vault{cfg: cfg, engine: engine, bankFree: make([]sim.Cycle, cfg.Banks)}
}

// Config returns the vault's timing configuration.
func (v *Vault) Config() Config { return v.cfg }

// bank maps a line to its bank: lines interleave across banks so
// consecutive lines hit different banks.
func (v *Vault) bank(line mem.LineAddr) int {
	return int((uint64(line) / mem.LineSize) & uint64(v.cfg.Banks-1))
}

// Access reserves the line's bank and returns the total latency of one
// vault access issued now: queueing (if the bank is busy) + controller +
// array + serialization.
func (v *Vault) Access(line mem.LineAddr) sim.Cycle {
	v.Accesses++
	now := v.engine.Now()
	b := v.bank(line)
	start := now + v.cfg.ControllerCycles
	if v.bankFree[b] > start {
		q := v.bankFree[b] - start
		v.Conflicts++
		v.QueueCycles += q
		start = v.bankFree[b]
	}
	v.bankFree[b] = start + v.cfg.ArrayCycles
	return (start - now) + v.cfg.ArrayCycles + v.cfg.SerializeCycles
}

// MetadataAccess is a vault access for directory metadata: it occupies a
// bank like any DRAM access but transfers a directory set rather than a
// TAD, so it skips TAD serialization (a directory set fits the burst).
func (v *Vault) MetadataAccess(line mem.LineAddr) sim.Cycle {
	v.Accesses++
	now := v.engine.Now()
	b := v.bank(line)
	start := now + v.cfg.ControllerCycles
	if v.bankFree[b] > start {
		q := v.bankFree[b] - start
		v.Conflicts++
		v.QueueCycles += q
		start = v.bankFree[b]
	}
	v.bankFree[b] = start + v.cfg.ArrayCycles
	return (start - now) + v.cfg.ArrayCycles
}
