// Package cpu models the processor cores: 3-wide out-of-order engines with
// a 128-entry ROB (paper Table II), approximated at the level the
// evaluation depends on. What the paper's experiments measure is how LLC
// hit latency and hit rate translate into stalls, which is governed by:
//
//   - issue width: instruction runs between misses retire at Width per cycle;
//   - memory-level parallelism: an L1-D miss blocks the core only when the
//     next instruction depends on it or the MLP window is full — server
//     workloads' low MLP (paper Sec. II-B) makes LLC latency visible;
//   - frontend stalls: instruction-fetch misses are always blocking.
//
// Compute work preceding a blocking miss is charged before the block, and
// independent misses overlap freely within the MLP window, which is the
// interval-model approximation of an OoO window.
package cpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Hierarchy is the memory system as seen by one core. Implementations
// return the access latency and sync=true when the access completed
// synchronously (an L1 hit); otherwise the core schedules its own
// completion lat cycles out. Returning a latency instead of taking a
// completion callback keeps the hot path allocation-free: the core reuses
// one pre-bound callback per completion kind rather than closing over
// per-access state.
type Hierarchy interface {
	// IFetch performs an instruction fetch of the given line. jump marks a
	// non-sequential control transfer; sequential line transitions are
	// covered by the next-line prefetcher and should complete
	// synchronously.
	IFetch(core int, line mem.LineAddr, jump bool) (lat sim.Cycle, sync bool)
	// Data performs a data access. nonTemporal marks streaming
	// accesses whose fills should not displace reused lines.
	Data(core int, addr mem.Addr, write, rwShared, independent, nonTemporal bool) (lat sim.Cycle, sync bool)
}

// Config shapes the core model.
type Config struct {
	Width int // retire width (paper: 3)
	// Burst bounds the instructions executed per scheduling quantum so the
	// clock advances even on all-hit streams.
	Burst int
}

// DefaultConfig is the paper's core at a practical quantum size.
func DefaultConfig() Config { return Config{Width: 3, Burst: 48} }

// opBatch is the number of ops a core pre-generates per stream refill.
// One refill runs the trace generator's RNG/threshold chain back to back
// — the generator state crosses memory once per batch, not once per op —
// while the buffer stays small enough (16 ops x 16 B = 4 cache lines,
// reused every refill) to live in the L1 permanently; a larger batch
// measurably evicts the simulator's own hot arrays on every quantum.
const opBatch = 16

// Core drives one workload op source through the hierarchy.
type Core struct {
	ID     int
	cfg    Config
	engine *sim.Engine
	stream workload.Source
	path   Hierarchy
	mlp    int

	// Pre-generated op batch (stream.NextBatch) the issue loop consumes
	// from; refilled only when empty, so ops are never dropped. A heap
	// slice, not an embedded array: the Core's hot scalars must stay
	// within a couple of cache lines.
	ops    []workload.Op
	opNext int
	opEnd  int

	// Execution state (kept adjacent to the batch cursor: one or two
	// cache lines cover everything the issue loop touches per op).
	running     bool
	haveStalled bool
	waitAny     bool // blocked because the MLP window is full
	outstanding int
	waitToken   uint64 // blocked on this specific request (0 = none)
	tokens      uint64
	deferred    sim.Cycle // compute cycles owed when the current block resolves

	// Pre-bound callbacks, allocated once so scheduling completions does
	// not allocate per access.
	stepFn     func()
	resumeFn   func()
	dataDoneFn func(uint64)
	// stalledOp holds the op whose instruction fetch is in flight: the
	// stream has already produced it, so resume must finish executing it
	// rather than fetch the next op (dropping it would silently lose one
	// retirement — and one memory access — per frontend stall).
	stalledOp workload.Op

	// Statistics.
	Retired     uint64
	Consumed    uint64 // ops taken from the batch buffer; every one retires
	IFetchStall uint64 // blocking ifetch misses
	DataBlocks  uint64 // blocking data misses
	Overlapped  uint64 // data misses issued without blocking
}

// New builds a core. Start must be called to begin execution.
func New(engine *sim.Engine, id int, cfg Config, stream workload.Source, path Hierarchy) *Core {
	if cfg.Width <= 0 || cfg.Burst <= 0 {
		panic(fmt.Sprintf("cpu: bad config %+v", cfg))
	}
	if stream == nil || path == nil {
		panic("cpu: nil stream or hierarchy")
	}
	c := &Core{
		ID:     id,
		cfg:    cfg,
		engine: engine,
		stream: stream,
		path:   path,
		mlp:    stream.Spec().MLP,
		ops:    make([]workload.Op, opBatch),
	}
	c.stepFn = c.step
	c.resumeFn = c.resume
	c.dataDoneFn = c.dataDone
	return c
}

// Start schedules the core's first quantum.
func (c *Core) Start() {
	if c.running {
		panic("cpu: core already started")
	}
	c.running = true
	c.engine.Schedule(0, c.stepFn)
}

// computeCycles converts an instruction run into cycles at the issue width.
func (c *Core) computeCycles(instr int) sim.Cycle {
	return sim.Cycle((instr + c.cfg.Width - 1) / c.cfg.Width)
}

// step executes instructions until the quantum is exhausted or the core
// blocks on a memory access. Ops come from the pre-generated batch buffer
// (refilled via stream.NextBatch when empty — identical op sequence to
// per-op Next, amortized generation cost), except on resume from an
// ifetch stall, where the stashed in-flight op finishes first. The
// per-instruction counters accumulate in locals (registers) and flush
// once per quantum/block instead of read-modify-writing the Core fields
// at every instruction.
func (c *Core) step() {
	var retired, consumed uint64
	run := 0
	for executed := 0; executed < c.cfg.Burst; executed++ {
		var op workload.Op
		if c.haveStalled {
			// Resuming from an ifetch stall: finish the op whose fetch just
			// completed instead of consuming a new one.
			op = c.stalledOp
			c.haveStalled = false
		} else {
			if c.opNext == c.opEnd {
				c.opEnd = c.stream.NextBatch(c.ops)
				c.opNext = 0
			}
			op = c.ops[c.opNext]
			c.opNext++
			consumed++
		}

		// Frontend: a new instruction line may miss the L1-I. Sequential
		// line transitions are covered by the next-line prefetcher (the
		// hierarchy still records them); jumps expose the fetch latency
		// and always block.
		if op.IWord != 0 {
			if lat, sync := c.path.IFetch(c.ID, op.NewIFetchLine(), op.Jump()); !sync {
				c.IFetchStall++
				// Stash the op; the fetch completes during the stall, so
				// clear the line to not re-issue it on resume. (A resumed op
				// has IWord zeroed, so it can never re-enter this branch.)
				op.IWord = 0
				c.stalledOp = op
				c.haveStalled = true
				c.engine.Schedule(lat, c.resumeFn)
				c.flush(retired, consumed)
				c.block(run)
				return
			}
		}

		retired++
		run++

		if !op.IsMem() {
			continue
		}
		tok := c.tokens + 1
		c.tokens = tok
		indep := op.Independent()
		lat, sync := c.path.Data(c.ID, op.Addr(), op.Write(), op.RWShared(), indep, op.NonTemporal())
		if sync {
			continue
		}
		c.engine.ScheduleArg(lat, c.dataDoneFn, tok)
		c.outstanding++
		switch {
		case !indep:
			// The next instruction needs this value: block on it.
			c.DataBlocks++
			c.waitToken = tok
			c.flush(retired, consumed)
			c.block(run)
			return
		case c.outstanding >= c.mlp:
			// MLP window full: block until any completion.
			c.DataBlocks++
			c.waitAny = true
			c.flush(retired, consumed)
			c.block(run)
			return
		default:
			c.Overlapped++
		}
	}
	// Quantum exhausted without blocking: charge its compute time.
	c.flush(retired, consumed)
	c.engine.Schedule(c.computeCycles(run), c.stepFn)
}

// flush folds a quantum's locally-accumulated counters into the Core
// fields; every exit from step passes through it, so the fields are
// consistent whenever the engine is between events.
func (c *Core) flush(retired, consumed uint64) {
	c.Retired += retired
	c.Consumed += consumed
}

// block records the compute cycles accumulated before a blocking miss so
// resume can charge them. Modelling choice: pre-miss compute serializes
// with the miss (charged on resume) rather than overlapping it; the same
// conservative charge applies identically to every evaluated system.
func (c *Core) block(run int) {
	c.deferred = c.computeCycles(run)
}

// resume restarts execution after a blocking access completes, first paying
// any compute cycles owed from before the block.
func (c *Core) resume() {
	d := c.deferred
	c.deferred = 0
	c.engine.Schedule(d, c.stepFn)
}

// dataDone handles completion of an outstanding data miss.
func (c *Core) dataDone(tok uint64) {
	c.outstanding--
	if c.outstanding < 0 {
		panic("cpu: completion underflow")
	}
	if c.waitToken == tok {
		c.waitToken = 0
		c.resume()
		return
	}
	if c.waitAny {
		c.waitAny = false
		c.resume()
	}
}

// Outstanding reports in-flight data misses (for tests).
func (c *Core) Outstanding() int { return c.outstanding }
