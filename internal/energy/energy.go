// Package energy implements the paper's hybrid energy model (Sec. VI-B):
// technology-derived per-access dynamic energies and static powers
// (Table III) combined with simulation event counts. It produces the
// memory-subsystem dynamic-energy breakdown of Fig 13; the package's
// tests check the LLC power bound of Sec. VII-C from the same Compute.
package energy

// Params are the Table III technology parameters for one system.
type Params struct {
	// LLC (SRAM banks or DRAM vaults).
	LLCStaticWPerBank float64 // W per bank/vault
	LLCBanks          int
	LLCDynNJ          float64 // nJ per LLC access
	// Main memory.
	MemStaticW float64
	MemDynNJ   float64 // nJ per memory access (reads and writebacks)
}

// BaselineParams is the shared SRAM LLC system: 30 mW static per bank and
// 0.25 nJ/access, with a 4 W, 20 nJ/access main memory.
func BaselineParams(banks int) Params {
	return Params{
		LLCStaticWPerBank: 0.030,
		LLCBanks:          banks,
		LLCDynNJ:          0.25,
		MemStaticW:        4,
		MemDynNJ:          20,
	}
}

// SILOParams is the die-stacked vault system: 120 mW static per vault and
// 0.4 nJ/access.
func SILOParams(vaults int) Params {
	return Params{
		LLCStaticWPerBank: 0.120,
		LLCBanks:          vaults,
		LLCDynNJ:          0.4,
		MemStaticW:        4,
		MemDynNJ:          20,
	}
}

// Breakdown is the energy spent over one measurement window.
type Breakdown struct {
	LLCDynamicJ float64
	MemDynamicJ float64
	LLCStaticJ  float64
	MemStaticJ  float64
}

// DynamicJ is the total dynamic energy (the Fig 13 quantity).
func (b Breakdown) DynamicJ() float64 { return b.LLCDynamicJ + b.MemDynamicJ }

// Compute turns event counts over a window of `seconds` into energy.
// llcAccesses counts LLC bank/vault accesses (data and metadata);
// memAccesses counts demand reads plus writebacks.
func Compute(p Params, llcAccesses, memAccesses uint64, seconds float64) Breakdown {
	return Breakdown{
		LLCDynamicJ: float64(llcAccesses) * p.LLCDynNJ * 1e-9,
		MemDynamicJ: float64(memAccesses) * p.MemDynNJ * 1e-9,
		LLCStaticJ:  p.LLCStaticWPerBank * float64(p.LLCBanks) * seconds,
		MemStaticJ:  p.MemStaticW * seconds,
	}
}
