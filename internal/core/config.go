// Package core assembles the evaluated systems from the substrate packages:
// cores, L1s (and optional L2s), the last-level cache organization under
// study, coherence, interconnect, and main memory. It implements the five
// system configurations of paper Sec. VI-A:
//
//   - Baseline: 8 MB shared NUCA SRAM LLC, 16 banks, MESI (Scale-out
//     Processors-style two-level hierarchy).
//   - Baseline+DRAM$: Baseline plus an 8 GB conventional page-based DRAM
//     cache with perfect miss prediction.
//   - SILO: all-private hierarchy with one latency-optimized 256 MB
//     die-stacked DRAM vault per core, inclusive direct-mapped TAD cache,
//     MOESI duplicate-tag directory embedded in the vaults: the vault
//     tags are the directory, each slot carrying its core's MOESI state.
//   - SILO-CO: SILO with capacity-optimized 512 MB vaults (32-cycle access).
//   - Vaults-Sh: latency-optimized vaults organized as a shared
//     address-interleaved NUCA LLC (isolates the private-organization
//     benefit from the DRAM-latency benefit).
//
// # Capacity scaling
//
// The paper warms multi-hundred-megabyte caches over billions of
// instructions from checkpoints. A reproduction must reach steady-state
// cache contents inside tractable windows, so every LLC-level capacity and
// every LLC-level workload footprint is divided by Config.Scale (default
// 16) while latencies and core parameters stay at paper values. The L1s
// (with a 2 KB floor) and optional L2s scale too, so every level keeps
// its capacity:footprint ratio. Hit rates depend on that ratio, which
// scaling preserves; all reported capacities use paper-scale labels. This
// substitution is recorded in DESIGN.md §2.
package core

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/dramcache"
	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/vault"
)

// Kind selects the system organization.
type Kind uint8

const (
	// Baseline is the shared 8MB NUCA SRAM LLC system.
	Baseline Kind = iota
	// BaselineDRAM is Baseline plus the conventional DRAM cache.
	BaselineDRAM
	// SILO is the private die-stacked vault organization (the paper's
	// contribution).
	SILO
	// SILOCO is SILO with capacity-optimized vaults.
	SILOCO
	// VaultsShared stacks latency-optimized vaults but shares them as an
	// address-interleaved NUCA LLC.
	VaultsShared
)

func (k Kind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case BaselineDRAM:
		return "Baseline+DRAM$"
	case SILO:
		return "SILO"
	case SILOCO:
		return "SILO-CO"
	case VaultsShared:
		return "Vaults-Sh"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Private reports whether the kind uses the all-private vault hierarchy.
func (k Kind) Private() bool { return k == SILO || k == SILOCO }

// GHz is the core clock (paper Table II: 2 GHz).
const GHz = 2.0

// Config describes one simulated system.
type Config struct {
	Kind  Kind
	Cores int // 16 for server studies, 4 for SPEC mixes
	Scale int64
	Seed  uint64

	// L1 (per core, paper Table II: 64KB 8-way I and D).
	L1Size int64
	L1Ways int

	// Optional private L2 for three-level hierarchies (paper Sec. VII-F:
	// 512KB). Zero disables it.
	L2Size    int64
	L2Ways    int
	L2Latency sim.Cycle

	// Shared LLC (Baseline kinds; paper-scale bytes).
	LLCSize        int64
	LLCWays        int
	LLCBankLatency sim.Cycle
	// LLCExtraLatency adds cycles to every shared-LLC access (the Fig 2
	// latency sweep) and RWSharedMult multiplies the LLC latency of
	// accesses to RW-shared blocks (the Fig 4 study; 1 = off).
	LLCExtraLatency sim.Cycle
	RWSharedMult    int

	// Conventional DRAM cache (BaselineDRAM only).
	DRAMCache dramcache.Config

	// Vault LLC (SILO kinds and VaultsShared; paper-scale bytes per core).
	VaultCapacity int64
	VaultTiming   vault.Config
	VaultWays     int // 1 = direct-mapped (paper); >1 for the ablation
	Protocol      coherence.Protocol

	// Fig 12 optimizations (both modelled as ideal, per the paper).
	LocalMissPredictor bool
	DirectoryCache     bool

	// GenThreads must be 0: trace generation runs on the timing thread
	// (DESIGN.md §12). Validate panics on any other value.
	//
	// Deprecated: perfbench is the only remaining user; delete the field
	// once perfbench stops setting it.
	GenThreads int

	// Interconnect and memory.
	HopLatency sim.Cycle
	// LLCFixedOverhead models router/controller overhead per shared-LLC
	// access; with the 4x4 mesh it lands the baseline's average loaded
	// round trip at the paper's 23 cycles.
	LLCFixedOverhead sim.Cycle
	Memory           memctl.Config
}

// DefaultScale is the capacity scale divisor (see the package comment).
const DefaultScale = 16

// base returns the Table II parameters shared by every system.
func base(kind Kind, cores int) Config {
	return Config{
		Kind:             kind,
		Cores:            cores,
		Scale:            DefaultScale,
		Seed:             1,
		L1Size:           64 << 10,
		L1Ways:           8,
		LLCSize:          8 << 20,
		LLCWays:          16,
		LLCBankLatency:   5,
		RWSharedMult:     1,
		VaultWays:        1,
		Protocol:         coherence.MOESI,
		HopLatency:       3,
		LLCFixedOverhead: 3,
		Memory:           memctl.Default(GHz),
	}
}

// BaselineConfig is the paper's baseline: Scale-out Processors-style 8MB
// shared NUCA LLC in a two-level hierarchy.
func BaselineConfig(cores int) Config { return base(Baseline, cores) }

// BaselineDRAMConfig augments the baseline with the 8GB conventional DRAM
// cache.
func BaselineDRAMConfig(cores int) Config {
	c := base(BaselineDRAM, cores)
	c.DRAMCache = dramcache.Default(GHz)
	return c
}

// SILOConfig is the paper's SILO: 256MB latency-optimized private vault per
// core, 23-cycle access, inclusive direct-mapped MOESI.
func SILOConfig(cores int) Config {
	c := base(SILO, cores)
	c.VaultCapacity = 256 << 20
	c.VaultTiming = vault.LatencyOptimized()
	return c
}

// SILOCOConfig is SILO with capacity-optimized 512MB vaults at 32 cycles.
func SILOCOConfig(cores int) Config {
	c := base(SILOCO, cores)
	c.VaultCapacity = 512 << 20
	c.VaultTiming = vault.CapacityOptimized()
	return c
}

// VaultsSharedConfig stacks latency-optimized vaults shared NUCA-style
// (aggregate 4GB for 16 cores), average loaded round trip ~41 cycles.
func VaultsSharedConfig(cores int) Config {
	c := base(VaultsShared, cores)
	c.VaultCapacity = 256 << 20
	c.VaultTiming = vault.LatencyOptimized()
	return c
}

// WithL2 converts a config into a three-level hierarchy (paper Sec. VII-F:
// 512KB private L2, modelled at 8 cycles).
func (c Config) WithL2() Config {
	c.L2Size = 512 << 10
	c.L2Ways = 8
	c.L2Latency = 8
	return c
}

// Validate panics on inconsistent configurations.
func (c *Config) Validate() {
	if c.Cores <= 0 || c.Cores > 32 {
		panic(fmt.Sprintf("core: %d cores outside [1,32]", c.Cores))
	}
	if c.Scale <= 0 {
		panic("core: non-positive scale")
	}
	if c.L1Size <= 0 || c.L1Ways <= 0 {
		panic("core: bad L1 geometry")
	}
	switch c.Kind {
	case Baseline, BaselineDRAM, VaultsShared:
		if c.Kind == VaultsShared {
			if c.VaultCapacity <= 0 {
				panic("core: VaultsShared without vault capacity")
			}
		} else if c.LLCSize <= 0 || c.LLCWays <= 0 {
			panic("core: shared LLC geometry missing")
		}
		if c.Kind == BaselineDRAM && c.DRAMCache.SizeBytes <= 0 {
			panic("core: BaselineDRAM without a DRAM cache")
		}
	case SILO, SILOCO:
		if c.VaultCapacity <= 0 || c.VaultWays <= 0 {
			panic("core: vault geometry missing")
		}
	default:
		panic(fmt.Sprintf("core: unknown kind %d", c.Kind))
	}
	if c.RWSharedMult < 1 {
		panic("core: RWSharedMult must be >= 1")
	}
	if c.GenThreads != 0 {
		panic(fmt.Sprintf("core: GenThreads %d must be 0 (off-thread generation was removed)", c.GenThreads))
	}
}

// meshDims returns the mesh shape for the core count (4x4 for 16 cores,
// 2x2 for the 4-core SPEC setup).
func meshDims(cores int) (w, h int) {
	switch {
	case cores <= 0:
		panic("core: no cores")
	case cores == 1:
		return 1, 1
	case cores == 2:
		return 2, 1
	case cores == 4:
		return 2, 2
	case cores == 8:
		return 4, 2
	case cores == 16:
		return 4, 4
	case cores == 32:
		return 8, 4
	default:
		panic(fmt.Sprintf("core: unsupported core count %d", cores))
	}
}

// scaledPow2 divides a paper-scale capacity by the scale factor and rounds
// to the nearest power of two so cache set counts stay valid.
func scaledPow2(bytes, scale int64) int64 {
	return scaledPow2Floor(bytes, scale, 4096)
}

// scaledL1 scales an L1 capacity with a smaller floor (the L1s are scaled
// along with everything else so footprint:capacity ratios hold at every
// level; see the package comment).
func scaledL1(bytes, scale int64) int64 {
	return scaledPow2Floor(bytes, scale, 2048)
}

func scaledPow2Floor(bytes, scale, floor int64) int64 {
	v := bytes / scale
	if v < floor {
		v = floor
	}
	p := int64(1)
	for p*2 <= v {
		p *= 2
	}
	// Round to nearest: if v is closer to 2p than p, use 2p.
	if v-p > 2*p-v {
		p *= 2
	}
	return p
}
