package workload

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Phased behaviour and sharing groups (DESIGN.md §14). A Phased wraps a
// Stream and cycles it through a list of phases — each a full workload
// Spec plus an arrival process drawing the phase's duration — so a
// client's memory behaviour varies over time (bursty footprints, load
// spikes, phase-change applications). Durations are measured in
// *generated ops*, not cycles: a phase boundary lands at a fixed point
// of the op stream regardless of how the consumer batches refills or
// where a checkpoint cuts, which is what extends the repo's
// bit-identity contracts to scenario runs.
// All duration draws come from a dedicated RNG (never the inner
// stream's), so phase scheduling cannot perturb the op-level draw
// sequence within a phase.
//
// A Phased also carries its client's sharing-group address offset: all
// clients in one scenario group share an address space (their RW-shared
// pools and remote-secondary slices genuinely interleave), while
// distinct groups are isolated VMs — every emitted address is shifted
// by the group offset, so no line of one group ever aliases another's.

// Arrival process names.
const (
	ArrivalFixed   = "fixed"   // every phase lasts exactly MeanOps
	ArrivalPoisson = "poisson" // exponential durations (memoryless)
	ArrivalGamma   = "gamma"   // gamma durations; CV > 1 = bursty
	ArrivalWeibull = "weibull" // weibull durations; Shape < 1 = heavy-tailed
)

// maxPhaseOps caps a drawn duration so the op countdown can never
// overflow; 2^60 ops is far beyond any run length.
const maxPhaseOps = float64(uint64(1) << 60)

// Arrival draws phase durations, in generated ops.
type Arrival struct {
	Process string  // one of the Arrival* names; "" = fixed
	MeanOps float64 // mean duration in ops
	CV      float64 // gamma only: coefficient of variation (0 = 1)
	Shape   float64 // weibull only: shape k (0 = 1, exponential)
}

// Check reports the first out-of-domain field as an error naming it.
func (a Arrival) Check() error {
	switch a.Process {
	case "", ArrivalFixed, ArrivalPoisson, ArrivalGamma, ArrivalWeibull:
	default:
		return fmt.Errorf("workload: arrival process %q not one of fixed/poisson/gamma/weibull", a.Process)
	}
	if !(a.MeanOps >= 1) || a.MeanOps > maxPhaseOps {
		return fmt.Errorf("workload: arrival mean_ops %v outside [1, 2^60]", a.MeanOps)
	}
	if a.CV < 0 || a.CV != a.CV {
		return fmt.Errorf("workload: arrival cv %v negative", a.CV)
	}
	if a.Shape < 0 || a.Shape != a.Shape {
		return fmt.Errorf("workload: arrival shape %v negative", a.Shape)
	}
	return nil
}

// draw samples one phase duration. Every sampler consumes rng draws
// only (deterministic), returns at least 1 op, and is clamped to
// maxPhaseOps.
func (a Arrival) draw(rng *sim.RNG) uint64 {
	var d float64
	switch a.Process {
	case "", ArrivalFixed:
		d = a.MeanOps
	case ArrivalPoisson:
		d = -a.MeanOps * math.Log(u01(rng))
	case ArrivalGamma:
		cv := a.CV
		if cv == 0 {
			cv = 1
		}
		// Mean k·θ = MeanOps, CV = 1/sqrt(k).
		k := 1 / (cv * cv)
		d = gammaSample(rng, k) * (a.MeanOps * cv * cv)
	case ArrivalWeibull:
		k := a.Shape
		if k == 0 {
			k = 1
		}
		// Scale λ so the mean λ·Γ(1+1/k) equals MeanOps.
		lambda := a.MeanOps / math.Gamma(1+1/k)
		d = lambda * math.Pow(-math.Log(u01(rng)), 1/k)
	default:
		panic(fmt.Sprintf("workload: arrival process %q (Check missed it)", a.Process))
	}
	if !(d >= 1) { // also catches NaN
		d = 1
	}
	if d > maxPhaseOps {
		d = maxPhaseOps
	}
	return uint64(d)
}

// u01 draws uniformly from (0,1] — never 0, so log is always finite.
func u01(rng *sim.RNG) float64 {
	return (float64(rng.Uint64()>>11) + 1) / float64(1<<53)
}

// normal draws a standard normal via Box-Muller (two uniform draws per
// variate; deterministic given the RNG).
func normal(rng *sim.RNG) float64 {
	u1, u2 := u01(rng), u01(rng)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// gammaSample draws Gamma(k, 1) via Marsaglia-Tsang, boosting k < 1
// with the standard U^(1/k) factor.
func gammaSample(rng *sim.RNG, k float64) float64 {
	if k < 1 {
		return gammaSample(rng, k+1) * math.Pow(u01(rng), 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := normal(rng)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := u01(rng)
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Phase pairs a workload spec with the arrival process drawing how long
// (in generated ops) the stream stays in it.
type Phase struct {
	Spec    Spec
	Arrival Arrival
}

// Sharing-group address offsets: group g's whole address map shifts by
// g·2^42. The workload address map tops out under 2^41, so shifted
// regions never collide, and with at most MaxGroups groups every
// address stays below the 2^46 line-address bound cache.Array enforces.
const (
	groupShift = 42
	// MaxGroups bounds scenario sharing groups.
	MaxGroups = 16
)

// GroupOffset returns the address-space offset (bytes) of sharing group
// g; it is line-aligned, so offsetting preserves the packed Op flag bits.
func GroupOffset(g int) uint64 {
	if g < 0 || g >= MaxGroups {
		panic(fmt.Sprintf("workload: sharing group %d outside [0,%d)", g, MaxGroups))
	}
	return uint64(g) << groupShift
}

// applyOffset shifts a batch's addresses into the source's sharing
// group. IWord is a 64-aligned line address with the jump flag in bit 0
// (offset is line-aligned: the flag survives); DWord's address field is
// bits 0-55, and offset+address stays far below 2^56, so the add can
// never carry into the flag bits. Zero words (no new ifetch line / not
// a memory op) must stay zero.
func applyOffset(ops []Op, off uint64) {
	if off == 0 {
		return
	}
	for i := range ops {
		if ops[i].IWord != 0 {
			ops[i].IWord += off
		}
		if ops[i].DWord != 0 {
			ops[i].DWord += off
		}
	}
}

// Phased is a Source cycling an inner Stream through phases. See the
// package comment above for the determinism contract.
type Phased struct {
	inner     *Stream
	phases    []Phase
	rng       *sim.RNG // phase-duration draws only
	idx       int      // current phase
	remaining uint64   // ops left in the current phase
	offset    uint64   // sharing-group address offset (bytes)
}

var _ Source = (*Phased)(nil)

// phaseRNGTag separates the phase-duration RNG fork from the per-core
// stream forks (ids 1..ncores).
const phaseRNGTag = 0xA5A5_0000

// NewPhased builds the phased source for one core: a fresh inner Stream
// from phases[0].Spec plus the phase scheduler. phaseSeq selects the
// duration-draw stream — give every core of one client the same
// phaseSeq and they switch phases at identical op counts (the client
// changes behaviour as a unit); offset places the client's sharing
// group (GroupOffset). Every phase spec must pass Check; the core's MLP
// window is bound once from phases[0] (cpu.Core reads Spec().MLP at
// construction), so scenario validation holds MLP constant across a
// client's phases.
func NewPhased(phases []Phase, core, ncores int, scale int64, seed uint64, phaseSeq uint64, offset uint64) *Phased {
	if len(phases) == 0 {
		panic("workload: NewPhased with no phases")
	}
	for i := range phases {
		phases[i].Spec.Validate()
		if err := phases[i].Arrival.Check(); err != nil {
			panic(err.Error())
		}
	}
	if offset%mem.LineSize != 0 || offset >= uint64(MaxGroups)<<groupShift {
		panic(fmt.Sprintf("workload: bad group offset %#x", offset))
	}
	p := &Phased{
		inner:  NewStream(phases[0].Spec, core, ncores, scale, seed),
		phases: phases,
		rng:    sim.NewRNG(seed).Fork(phaseRNGTag + phaseSeq),
		offset: offset,
	}
	p.remaining = p.phases[0].Arrival.draw(p.rng)
	return p
}

// advance moves to the next phase (cyclically), retunes the inner
// stream and draws the new duration.
func (p *Phased) advance() {
	p.idx = (p.idx + 1) % len(p.phases)
	ph := &p.phases[p.idx]
	p.inner.Retune(ph.Spec)
	p.remaining = ph.Arrival.draw(p.rng)
}

// Spec reports the phase-0 spec (structural parameters like MLP are
// per-client constants; see NewPhased).
func (p *Phased) Spec() Spec { return p.phases[0].Spec }

// PhaseIndex reports the current phase (tests).
func (p *Phased) PhaseIndex() int { return p.idx }

// Generated reports ops produced so far.
func (p *Phased) Generated() uint64 { return p.inner.Generated() }

// Next produces one op.
func (p *Phased) Next(op *Op) {
	if p.remaining == 0 {
		p.advance()
	}
	p.inner.Next(op)
	if p.offset != 0 {
		if op.IWord != 0 {
			op.IWord += p.offset
		}
		if op.DWord != 0 {
			op.DWord += p.offset
		}
	}
	p.remaining--
}

// NextBatch fills dst, splitting the refill at phase boundaries. Chunk
// sizes depend only on the op counts at which boundaries fall, never on
// how the caller batches — the split-invariance NextBatch inherits from
// the inner stream therefore extends across phase switches.
func (p *Phased) NextBatch(dst []Op) int {
	n := len(dst)
	for len(dst) > 0 {
		if p.remaining == 0 {
			p.advance()
		}
		c := uint64(len(dst))
		if c > p.remaining {
			c = p.remaining
		}
		p.inner.NextBatch(dst[:c])
		applyOffset(dst[:c], p.offset)
		p.remaining -= c
		dst = dst[c:]
	}
	return n
}

// Prewarm visits the phase-0 footprints at the group's offset.
func (p *Phased) Prewarm(visit func(addr mem.Addr, instr bool)) {
	if p.offset == 0 {
		p.inner.Prewarm(visit)
		return
	}
	p.inner.Prewarm(func(addr mem.Addr, instr bool) {
		visit(addr+mem.Addr(p.offset), instr)
	})
}

// Snapshot serializes the phase scheduler then the inner stream. The
// phase list itself is rebuilt by the constructor (it is part of the
// checkpoint key's identity); only its length and the offset are
// recorded as shape cross-checks.
func (p *Phased) Snapshot(w *checkpoint.Writer) {
	w.Section("workload.Phased")
	w.I64(int64(len(p.phases)))
	w.U64(p.offset)
	w.I64(int64(p.idx))
	w.U64(p.remaining)
	w.U64(p.rng.State())
	p.inner.Snapshot(w)
}

// Restore overwrites a freshly constructed Phased's mutable state. The
// inner stream is retuned to the snapshotted phase before its own
// restore, so cursors land against the footprints they were cut with.
func (p *Phased) Restore(r *checkpoint.Reader) error {
	if err := r.Section("workload.Phased"); err != nil {
		return err
	}
	nphases := int(r.I64())
	offset := r.U64()
	idx := int(r.I64())
	remaining := r.U64()
	rngState := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if nphases != len(p.phases) || offset != p.offset {
		return fmt.Errorf("workload: checkpoint phased source (%d phases, offset %#x) restored into (%d phases, offset %#x)",
			nphases, offset, len(p.phases), p.offset)
	}
	if idx < 0 || idx >= len(p.phases) {
		return fmt.Errorf("workload: checkpoint phase index %d outside [0,%d)", idx, len(p.phases))
	}
	p.idx = idx
	p.remaining = remaining
	p.rng.SetState(rngState)
	p.inner.Retune(p.phases[idx].Spec)
	return p.inner.Restore(r)
}
