package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/robust"
	"repro/internal/sim"
)

// Fault-tolerant sweep execution (the robustness layer over grid.go).
// RunGrid, the one grid entry point, wraps the ordered streaming pool
// with per-cell failure isolation, deterministic retry with capped
// exponential backoff, a per-cell wall-clock watchdog, and a crash-safe
// resume journal — the per-shard protocol the distributed runner
// reuses. The determinism contract holds throughout: a retried,
// resumed, or fault-injected-then-recovered sweep emits records
// byte-identical (modulo wall_ms) to an uninterrupted run.

// GridJournalSalt versions the journal key scheme. Bump it whenever a
// change alters simulation semantics (any emitted number), so resumed
// sweeps never merge records computed by different code.
const GridJournalSalt = "grid-v1"

// Cell failure kinds (CellError.Kind).
const (
	// CellPanic is a recovered panic inside the cell.
	CellPanic = "panic"
	// CellTimeout is a cell that exceeded GridOptions.CellDeadline.
	CellTimeout = "timeout"
	// cellCanceled marks an attempt cut short by sweep shutdown; such
	// records are never emitted or journaled.
	cellCanceled = "canceled"
)

// CellError is the structured failure record of a permanently failed
// cell — one JSON-lines record in the sweep output carries it in place
// of measurements. Every field is deterministic (the stack digest
// normalizes away goroutine identity and parallelism; see
// robust.Digest), so failed sweeps stay byte-identical across
// parallelism levels too.
type CellError struct {
	Kind        string  `json:"kind"`  // panic | timeout
	Phase       string  `json:"phase"` // enumerate | restore | build | prewarm | warm | checkpoint | measure | check
	Message     string  `json:"message,omitempty"`
	StackDigest string  `json:"stack_digest,omitempty"`
	Attempts    int     `json:"attempts"`
	DeadlineMS  float64 `json:"deadline_ms,omitempty"`
}

// GridOptions configures the fault-tolerant execution layer. The zero
// value fails fast: no retries, no watchdog, no journal.
type GridOptions struct {
	// OnError selects fail-fast (default) or skip-and-record.
	OnError robust.FailPolicy
	// Retries is how many times a panicked or timed-out cell is re-run
	// (from scratch — attempts are deterministic, so a retry of a
	// deterministic failure fails identically; retries exist for
	// transient host faults) before it counts as permanently failed.
	Retries int
	// Backoff paces retries; the zero value retries immediately.
	Backoff robust.Backoff
	// CellDeadline is the per-cell wall-clock watchdog; a cell exceeding
	// it is recorded as timed out (the attempt's goroutine is abandoned
	// — simulations are not interruptible). 0 disables the watchdog.
	CellDeadline time.Duration
	// Journal, when non-nil, records each completed cell fsync'd; with
	// Resume, cells whose journal key is already present are not
	// simulated — their records are re-emitted from the journal.
	Journal *robust.Journal
	Resume  bool
	// Injector injects deterministic faults (tests/CI harness only).
	Injector *robust.Injector
}

// RunGrid executes the grid under mode m and opts, invoking emit once
// per completed cell, in order and on the calling goroutine. indices
// names the cells to run: nil runs the whole grid in enumeration order;
// the distributed runner passes one lease batch (DESIGN.md §13) and
// gets records back in the order given. Journal keys are the same
// content hashes a whole-grid run derives, so per-shard journals merge
// idempotently with each other and with a single-process journal.
//
// Cells run concurrently on m.Parallelism workers (streamOrdered), and
// emission order and every record field except WallMS are identical at
// any parallelism. The zero opts fail fast: a permanently failed cell
// aborts the sweep with an error naming the cell. Under SkipFailed it
// becomes one structured error record and the sweep continues. emit
// returning false stops the sweep: no further cells are simulated.
// Cancelling ctx is graceful shutdown — in-flight cells drain, the
// journal keeps everything completed — and RunGrid returns ctx.Err().
// A misconfigured grid or an index outside [0, g.Cells()) is returned
// as an error before anything simulates.
func RunGrid(ctx context.Context, g GridSpec, m Mode, opts GridOptions, indices []int, emit func(GridCellResult) bool) (err error) {
	if err := g.check(m); err != nil {
		return err
	}
	cells := g.enumerate(m)
	if indices == nil {
		indices = make([]int, len(cells))
		for i := range indices {
			indices[i] = i
		}
	}
	for _, idx := range indices {
		if idx < 0 || idx >= len(cells) {
			return fmt.Errorf("grid: cell index %d outside [0, %d)", idx, len(cells))
		}
	}
	ex := &cellExecutor{m: m, opts: opts}
	if opts.Journal != nil && opts.Resume {
		ex.resume = opts.Journal.Entries()
	}
	defer func() {
		// FailFast cell failures propagate as labeled panics from the
		// pool; surface them as errors — this path is CLI-reachable.
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	streamOrdered(ctx, len(indices), m.Parallelism,
		func(i int) GridCellResult { return ex.run(ctx, cells[indices[i]]) },
		func(_ int, r GridCellResult) bool {
			if r.Error != nil && r.Error.Kind == cellCanceled {
				return false // shutdown mid-cell: never emit the sentinel
			}
			if ex.journalErr() != nil {
				return false // a dead journal must not burn the sweep's hours
			}
			return emit(r)
		})
	if jerr := ex.journalErr(); jerr != nil {
		return jerr
	}
	return ctx.Err()
}

// check reports whether g is runnable under m: a valid spec whose every
// window gets at least one of m's measure cycles.
func (g GridSpec) check(m Mode) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if w := g.normalized().Windows; m.MeasureCycles/sim.Cycle(w) <= 0 {
		return fmt.Errorf("grid: measure budget %d too small for %d windows (each window needs at least one cycle)", m.MeasureCycles, w)
	}
	return nil
}

// GridCellKeys derives every cell's journal key — the content hash a
// completed record is stored and deduplicated under. A distributed
// coordinator uses these to merge shard reports idempotently (a cell
// completed twice emits once) and to resume from its own journal
// without re-deriving cells. It refuses any grid RunGrid would refuse.
func GridCellKeys(g GridSpec, m Mode) ([]string, error) {
	if err := g.check(m); err != nil {
		return nil, err
	}
	cells := g.enumerate(m)
	ex := &cellExecutor{m: m}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = ex.key(c)
	}
	return keys, nil
}

// cellExecutor runs one cell under the fault-tolerance options:
// journal lookup, retry loop, watchdog, panic isolation.
type cellExecutor struct {
	m      Mode
	opts   GridOptions
	resume map[string]json.RawMessage

	mu   sync.Mutex
	jerr error // first journal append failure
}

// key derives the cell's journal key: a content hash over the
// code-version salt, the mode's measurement geometry, and the cell's
// full identity. Overrides are keyed by name — the CLI compiles names
// to mutations deterministically, so equal names mean equal configs.
// Scenario cells additionally fold in the scenario digest, so editing a
// spec file (or the trace it references) invalidates exactly its own
// journal entries; workload cells keep their historical keys.
func (e *cellExecutor) key(c gridCell) string {
	parts := []string{GridJournalSalt, e.m.Name,
		fmt.Sprint(e.m.WarmInstr), fmt.Sprint(e.m.WarmCycles), fmt.Sprint(e.m.MeasureCycles),
		fmt.Sprint(c.index), c.system, c.wl, c.ov,
		fmt.Sprint(c.cfg.Scale), fmt.Sprint(c.windows), fmt.Sprint(c.confidence)}
	if c.scen != nil {
		parts = append(parts, c.scen.Digest())
	}
	return robust.Key(parts...)
}

func (e *cellExecutor) journalErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jerr
}

func (e *cellExecutor) setJournalErr(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.jerr == nil {
		e.jerr = fmt.Errorf("grid journal: %w", err)
	}
}

// run executes one cell: resume from the journal when possible,
// otherwise attempt with retries and record the outcome.
func (e *cellExecutor) run(ctx context.Context, c gridCell) GridCellResult {
	key := e.key(c)
	if raw, ok := e.resume[key]; ok {
		var r GridCellResult
		// A record that fails to decode, or recorded a failure, is
		// re-simulated rather than trusted.
		if err := json.Unmarshal(raw, &r); err == nil && r.Error == nil {
			return r
		}
	}

	var last *CellError
	for attempt := 0; attempt <= e.opts.Retries; attempt++ {
		if attempt > 0 {
			if err := e.opts.Backoff.Sleep(ctx, attempt-1); err != nil {
				return canceledResult(c)
			}
		}
		rec, cerr := e.attempt(ctx, c, attempt)
		if cerr == nil {
			if e.opts.Journal != nil {
				if err := e.opts.Journal.Append(key, rec); err != nil {
					e.setJournalErr(err)
				}
			}
			return rec
		}
		if cerr.Kind == cellCanceled {
			return canceledResult(c)
		}
		cerr.Attempts = attempt + 1
		last = cerr
	}

	if e.opts.OnError == robust.FailFast {
		panic(fmt.Sprintf("experiments: grid cell %d (%s/%s/%s): %s in phase %s after %d attempt(s): %s",
			c.index, c.system, c.wl, c.ov, last.Kind, last.Phase, last.Attempts, last.Message))
	}
	// SkipFailed: the structured error record takes the cell's slot in
	// the stream; identity fields are kept so the failure is attributable.
	return GridCellResult{
		Index: c.index, System: c.system, Workload: c.wl, Override: c.ov,
		Scale: c.cfg.Scale, Windows: c.windows, Confidence: c.confidence,
		Error: last,
	}
}

// attempt runs one try of the cell, under the watchdog when a deadline
// is configured.
func (e *cellExecutor) attempt(ctx context.Context, c gridCell, attempt int) (GridCellResult, *CellError) {
	ph := &phaseTracker{}
	d := e.opts.CellDeadline
	if d <= 0 {
		return e.simulate(ctx, c, attempt, ph)
	}

	actx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	type outcome struct {
		rec  GridCellResult
		cerr *CellError
	}
	// Buffered so an abandoned attempt can always deliver and exit: the
	// watchdog never strands a goroutine on a send.
	ch := make(chan outcome, 1)
	go func() {
		rec, cerr := e.simulate(actx, c, attempt, ph)
		ch <- outcome{rec, cerr}
	}()
	select {
	case o := <-ch:
		if o.cerr != nil && o.cerr.Kind == cellCanceled && ctx.Err() == nil {
			// The attempt observed the watchdog's cancellation itself
			// (e.g. an injected stall cut short): that is a timeout.
			return GridCellResult{}, e.timeoutError(ph)
		}
		return o.rec, o.cerr
	case <-actx.Done():
		if ctx.Err() != nil {
			return GridCellResult{}, &CellError{Kind: cellCanceled}
		}
		// Deadline exceeded: record the phase the attempt was in and
		// abandon its goroutine (it drains into the buffered channel
		// whenever it finishes — simulations cannot be interrupted).
		return GridCellResult{}, e.timeoutError(ph)
	}
}

func (e *cellExecutor) timeoutError(ph *phaseTracker) *CellError {
	return &CellError{
		Kind:       CellTimeout,
		Phase:      ph.get(),
		Message:    fmt.Sprintf("cell exceeded its %v deadline", e.opts.CellDeadline),
		DeadlineMS: float64(e.opts.CellDeadline.Nanoseconds()) / 1e6,
	}
}

// simulate runs simulateCell with panic isolation: a panic becomes a
// structured *CellError (identity, phase, stack digest) instead of
// killing the sweep.
func (e *cellExecutor) simulate(ctx context.Context, c gridCell, attempt int, ph *phaseTracker) (rec GridCellResult, cerr *CellError) {
	defer func() {
		if p := recover(); p != nil {
			if err, ok := p.(error); ok && err == robust.ErrStallInterrupted {
				cerr = &CellError{Kind: cellCanceled}
				return
			}
			cerr = &CellError{
				Kind:        CellPanic,
				Phase:       ph.get(),
				Message:     fmt.Sprint(p),
				StackDigest: robust.Digest(debug.Stack(), "cellExecutor).simulate"),
			}
		}
	}()
	if ctx.Err() != nil {
		return GridCellResult{}, &CellError{Kind: cellCanceled}
	}
	return simulateCell(ctx, c, e.m, e.opts.Injector, attempt, ph), nil
}

func canceledResult(c gridCell) GridCellResult {
	return GridCellResult{Index: c.index, Error: &CellError{Kind: cellCanceled}}
}
