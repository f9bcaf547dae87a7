package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/workload"
)

// faultMode keeps fault-path tests fast: the machinery under test is the
// execution layer, not the simulation, so tiny windows suffice.
func faultMode() Mode {
	return Mode{Name: "grid-fault-test", WarmInstr: 2_000, WarmCycles: 500, MeasureCycles: 4_000, Scale: 32}
}

// faultGrid is the 2x2 grid (4 cells) the fault-tolerance tests share.
func faultGrid() GridSpec {
	return GridSpec{
		Systems:   []core.Config{core.BaselineConfig(16), core.SILOConfig(16)},
		Workloads: []workload.Spec{workload.WebSearch(), workload.DataServing()},
		Windows:   2,
	}
}

// checkGoroutineLeaks fails the test if goroutines spawned during it are
// still alive at cleanup — the watchdog/cancellation paths abandon
// attempt goroutines and must still wind every one of them down.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				m := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d live at cleanup vs %d at start\n%s", n, base, buf[:m])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// collectOpts runs the whole grid under opts and returns the emitted
// records.
func collectOpts(t *testing.T, ctx context.Context, g GridSpec, m Mode, opts GridOptions) ([]GridCellResult, error) {
	t.Helper()
	var out []GridCellResult
	err := RunGrid(ctx, g, m, opts, nil, func(r GridCellResult) bool {
		out = append(out, r)
		return true
	})
	return out, err
}

// collectGrid runs the whole grid with the zero (fail-fast) options and
// returns its records, failing the test on any error.
func collectGrid(t *testing.T, g GridSpec, m Mode) []GridCellResult {
	t.Helper()
	rs, err := collectOpts(t, context.Background(), g, m, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// Skip mode: one injected hard failure yields a complete sweep with
// exactly one structured error record, healthy cells untouched, and the
// whole stream byte-identical across parallelism levels.
func TestGridSkipModeIsolatesFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	checkGoroutineLeaks(t)
	g, m := faultGrid(), faultMode()
	clean := collectGrid(t, g, m)

	const failIdx = 2
	var streams [][]byte
	for _, par := range []int{1, 5} {
		pm := m
		pm.Parallelism = par
		inj := robust.NewInjector(1, robust.Plan{PanicCells: map[int]int{failIdx: -1}})
		rs, err := collectOpts(t, context.Background(), g, pm, GridOptions{OnError: robust.SkipFailed, Injector: inj})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(rs) != g.Cells() {
			t.Fatalf("par=%d: sweep incomplete: %d of %d records", par, len(rs), g.Cells())
		}
		var failures int
		for i, r := range rs {
			if r.Error == nil {
				// Healthy cells must be exactly what a clean run produces.
				if !bytes.Equal(jsonLines([]GridCellResult{r}), jsonLines([]GridCellResult{clean[i]})) {
					t.Errorf("par=%d: healthy record %d diverged from clean run", par, i)
				}
				continue
			}
			failures++
			e := r.Error
			if r.Index != failIdx || e.Kind != CellPanic || e.Attempts != 1 {
				t.Errorf("par=%d: error record %+v at index %d", par, e, r.Index)
			}
			if !strings.Contains(e.Message, "injected panic") {
				t.Errorf("par=%d: error message %q", par, e.Message)
			}
			if e.Phase == "" || len(e.StackDigest) != 16 {
				t.Errorf("par=%d: error record missing phase/digest: %+v", par, e)
			}
			// The failed cell keeps its identity but no measurements.
			if r.System == "" || r.Workload == "" || r.Retired != 0 || r.IPC != 0 {
				t.Errorf("par=%d: failed record carries measurements: %+v", par, r)
			}
		}
		if failures != 1 {
			t.Fatalf("par=%d: %d error records, want exactly 1", par, failures)
		}
		streams = append(streams, jsonLines(rs))
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Fatal("skip-mode output diverged between parallelism 1 and 5")
	}
}

// Retries outlast a transient fault and the emitted stream is
// byte-identical to a never-faulted run — the retry determinism
// contract.
func TestGridRetryOutlastsTransientFault(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	checkGoroutineLeaks(t)
	g, m := faultGrid(), faultMode()
	clean := jsonLines(collectGrid(t, g, m))

	// Cell 1 panics on its first two attempts, then succeeds.
	inj := robust.NewInjector(0, robust.Plan{PanicCells: map[int]int{1: 2}})
	rs, err := collectOpts(t, context.Background(), g, m, GridOptions{
		Retries:  2,
		Backoff:  robust.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonLines(rs), clean) {
		t.Fatal("retried sweep diverged from the clean run")
	}
	// 4 cells + 2 extra attempts for the transient cell.
	if inj.Fires() != int64(g.Cells())+2 {
		t.Fatalf("Fires = %d, want %d", inj.Fires(), g.Cells()+2)
	}
}

// The watchdog: a stalled cell is recorded as a timeout naming its
// phase and deadline, the rest of the sweep completes, and the
// abandoned attempt goroutine unwinds (no leaks).
func TestGridWatchdogTimesOut(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	checkGoroutineLeaks(t)
	g, m := faultGrid(), faultMode()
	// The deadline must fail only the stalled cell: calibrate it to 10x
	// the slowest clean cell on this host (the race detector slows
	// simulation by an order of magnitude).
	var slowest float64
	for _, r := range collectGrid(t, g, m) {
		if r.WallMS > slowest {
			slowest = r.WallMS
		}
	}
	deadline := time.Duration(10*slowest) * time.Millisecond
	if deadline < 300*time.Millisecond {
		deadline = 300 * time.Millisecond
	}
	inj := robust.NewInjector(0, robust.Plan{StallCells: map[int]time.Duration{0: time.Hour}})
	rs, err := collectOpts(t, context.Background(), g, m, GridOptions{
		OnError:      robust.SkipFailed,
		CellDeadline: deadline,
		Injector:     inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != g.Cells() {
		t.Fatalf("sweep incomplete: %d of %d", len(rs), g.Cells())
	}
	e := rs[0].Error
	if e == nil || e.Kind != CellTimeout {
		t.Fatalf("stalled cell record: %+v", rs[0])
	}
	if e.DeadlineMS != float64(deadline.Milliseconds()) || e.Attempts != 1 || e.Phase == "" {
		t.Fatalf("timeout record fields: %+v", e)
	}
	for _, r := range rs[1:] {
		if r.Error != nil {
			t.Fatalf("healthy cell %d recorded error %+v", r.Index, r.Error)
		}
	}
}

// Fail-fast: a permanently failed cell aborts the sweep with an error
// naming the cell — returned, not panicked, on the CLI-reachable path.
func TestGridFailFastReturnsError(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	checkGoroutineLeaks(t)
	g, m := faultGrid(), faultMode()
	inj := robust.NewInjector(0, robust.Plan{PanicCells: map[int]int{0: -1}})
	_, err := collectOpts(t, context.Background(), g, m, GridOptions{Injector: inj})
	if err == nil {
		t.Fatal("fail-fast sweep with a failing cell returned nil")
	}
	msg := err.Error()
	if !strings.Contains(msg, "grid cell 0") || !strings.Contains(msg, "Baseline/WebSearch") || !strings.Contains(msg, "panic") {
		t.Fatalf("error does not name the failed cell: %v", err)
	}
}

// Graceful shutdown: cancelling the context mid-sweep returns ctx.Err(),
// the emitted prefix is exactly a clean run's prefix, and the pool winds
// down without leaking goroutines.
func TestGridShutdownEmitsCleanPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	checkGoroutineLeaks(t)
	g := faultGrid()
	clean := collectGrid(t, g, faultMode())

	for _, par := range []int{1, 2} {
		m := faultMode()
		m.Parallelism = par
		ctx, cancel := context.WithCancel(context.Background())
		var got []GridCellResult
		err := RunGrid(ctx, g, m, GridOptions{}, nil, func(r GridCellResult) bool {
			got = append(got, r)
			if len(got) == 1 {
				cancel()
			}
			return true
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("par=%d: cancelled sweep returned %v, want context.Canceled", par, err)
		}
		if len(got) == 0 {
			t.Fatalf("par=%d: nothing emitted before the cancel", par)
		}
		if par == 1 && len(got) != 1 {
			// The sequential path checks ctx before every cell: exactly the
			// record that triggered the cancel is emitted.
			t.Fatalf("par=1: emitted %d records after cancelling at 1", len(got))
		}
		if !bytes.Equal(jsonLines(got), jsonLines(clean[:len(got)])) {
			t.Fatalf("par=%d: partial output is not a clean-run prefix", par)
		}
	}
}

// Validation errors (not panics) for CLI-reachable misconfiguration.
func TestGridOptsValidation(t *testing.T) {
	noop := func(GridCellResult) bool { return true }
	if err := RunGrid(context.Background(), GridSpec{}, faultMode(), GridOptions{}, nil, noop); err == nil || !strings.Contains(err.Error(), "at least one system") {
		t.Fatalf("empty grid: %v", err)
	}
	g := faultGrid()
	g.Confidence = 95 // a percentage, not a level
	if err := RunGrid(context.Background(), g, faultMode(), GridOptions{}, nil, noop); err == nil || !strings.Contains(err.Error(), "confidence") {
		t.Fatalf("bad confidence: %v", err)
	}
	g = faultGrid()
	g.Windows = 100
	m := faultMode()
	m.MeasureCycles = 50 // fewer cycles than windows
	if err := RunGrid(context.Background(), g, m, GridOptions{}, nil, noop); err == nil || !strings.Contains(err.Error(), "measure budget") {
		t.Fatalf("undersized budget: %v", err)
	}
	// A distributed coordinator derives keys before any cell runs; it
	// must refuse the same grid rather than fail mid-sweep.
	if _, err := GridCellKeys(g, m); err == nil || !strings.Contains(err.Error(), "measure budget") {
		t.Fatalf("GridCellKeys accepted an undersized budget: %v", err)
	}
	if err := RunGrid(context.Background(), faultGrid(), faultMode(), GridOptions{}, []int{0, 4}, noop); err == nil || !strings.Contains(err.Error(), "cell index 4 outside [0, 4)") {
		t.Fatalf("out-of-range index: %v", err)
	}
}

// Journal + resume, in-process: an interrupted sweep's journal lets a
// resumed run skip completed cells, and the merged output is
// byte-identical to an uninterrupted run — including after torn-tail
// journal corruption forces one cell to re-simulate.
func TestGridJournalResumeInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	checkGoroutineLeaks(t)
	g, m := faultGrid(), faultMode()
	m.Parallelism = 1
	clean := jsonLines(collectGrid(t, g, faultMode()))
	path := filepath.Join(t.TempDir(), "journal.jl")

	// First run: abort after two cells (emit returns false). Both are
	// already journaled — cells journal before they emit.
	j1, err := robust.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	if err := RunGrid(context.Background(), g, m, GridOptions{Journal: j1}, nil, func(GridCellResult) bool {
		emitted++
		return emitted < 2
	}); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	// Resume: only the remaining cells simulate (Fires counts attempts),
	// and the merged stream matches the uninterrupted run byte for byte.
	j2, err := robust.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 2 {
		t.Fatalf("journal has %d entries after aborting at 2, want 2", j2.Len())
	}
	m.Parallelism = 5
	inj := robust.NewInjector(0, robust.Plan{})
	rs, err := collectOpts(t, context.Background(), g, m, GridOptions{Journal: j2, Resume: true, Injector: inj})
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonLines(rs), clean) {
		t.Fatal("resumed sweep diverged from the uninterrupted run")
	}
	if want := int64(g.Cells() - 2); inj.Fires() != want {
		t.Fatalf("resumed sweep ran %d cell attempts, want %d (journaled cells must not re-simulate)", inj.Fires(), want)
	}

	// Corrupt the journal tail (crash mid-append). The torn entry is
	// dropped on open, its cell re-simulates, output is still identical.
	if err := robust.TruncateTail(path, 5); err != nil {
		t.Fatal(err)
	}
	j3, err := robust.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j3.DroppedBytes() == 0 || j3.Len() != g.Cells()-1 {
		t.Fatalf("torn tail not repaired: len=%d dropped=%d", j3.Len(), j3.DroppedBytes())
	}
	inj2 := robust.NewInjector(0, robust.Plan{})
	rs, err = collectOpts(t, context.Background(), g, m, GridOptions{Journal: j3, Resume: true, Injector: inj2})
	j3.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonLines(rs), clean) {
		t.Fatal("post-corruption resume diverged from the uninterrupted run")
	}
	if inj2.Fires() != 1 {
		t.Fatalf("post-corruption resume ran %d attempts, want 1 (the torn cell)", inj2.Fires())
	}
}

// A journal entry recording a failure must not be trusted on resume —
// the cell re-simulates and (faults gone) succeeds.
func TestGridResumeRetriesJournaledFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	g, m := faultGrid(), faultMode()
	clean := jsonLines(collectGrid(t, g, faultMode()))
	path := filepath.Join(t.TempDir(), "journal.jl")

	// Journal a failure record for cell 3 by hand, via the executor's own
	// key derivation.
	j, err := robust.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ex := &cellExecutor{m: m}
	cells := g.normalized().enumerate(m)
	failRec := GridCellResult{Index: 3, Error: &CellError{Kind: CellPanic, Phase: "build", Attempts: 1}}
	if err := j.Append(ex.key(cells[3]), failRec); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := robust.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := collectOpts(t, context.Background(), g, m, GridOptions{Journal: j2, Resume: true})
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonLines(rs), clean) {
		t.Fatal("journaled failure was replayed instead of re-simulated")
	}
}

// streamOrdered context cancellation across worker counts: emission
// stops, workers stop claiming, and every goroutine winds down.
func TestStreamOrderedContextCancel(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkGoroutineLeaks(t)
			const n = 200
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			emitted := 0
			streamOrdered(ctx, n, workers, func(i int) int {
				calls.Add(1)
				time.Sleep(time.Millisecond)
				return i
			}, func(i, v int) bool {
				emitted++
				if emitted == 3 {
					cancel()
				}
				return true
			})
			if emitted < 3 || emitted >= n {
				t.Fatalf("emitted %d of %d after cancel at 3", emitted, n)
			}
			if got := calls.Load(); got >= n {
				t.Fatalf("fn ran %d times; cancellation did not stop the pool", got)
			}
		})
	}
}

// streamOrdered panic propagation across worker counts: the panic
// surfaces on the caller, no further indices are claimed, and the pool
// still winds down leak-free.
func TestStreamOrderedPanicAcrossWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkGoroutineLeaks(t)
			const n = 64
			var calls atomic.Int64
			got := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				streamOrdered(context.Background(), n, workers, func(i int) int {
					calls.Add(1)
					if i == 7 {
						panic("boom at 7")
					}
					return i
				}, func(i, v int) bool { return true })
				return ""
			}()
			if !strings.Contains(got, "boom at 7") {
				t.Fatalf("panic did not propagate: %q", got)
			}
			// A failed batch is discarded, so the pool must stop claiming
			// cells rather than simulate the rest of the grid.
			if c := calls.Load(); c >= n {
				t.Fatalf("fn ran %d of %d times; the pool kept claiming after the panic", c, n)
			}
		})
	}
}

// The acceptance criterion: a sweep SIGKILLed at a randomized cell
// boundary and resumed produces output byte-identical (modulo wall_ms)
// to an uninterrupted run, at parallelism 1 and 5. The child process
// re-execs this test binary (GRID_HELPER=1) and kills itself with
// SIGKILL — a real crash, not a simulated one; only the fsync'd journal
// survives.
func TestGridKillResumeSubprocess(t *testing.T) {
	if os.Getenv("GRID_HELPER") == "1" {
		gridKillHelper(t)
		return
	}
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	g := faultGrid()
	golden := jsonLines(collectGrid(t, g, faultMode()))

	for _, par := range []int{1, 5} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			dir := t.TempDir()
			journal := filepath.Join(dir, "journal.jl")
			out := filepath.Join(dir, "out.jsonl")
			// A randomized kill point strictly inside the sweep: the child
			// SIGKILLs itself right after emitting this many cells.
			killAfter := 1 + int(time.Now().UnixNano())%(g.Cells()-1)
			t.Logf("killing after %d of %d cells", killAfter, g.Cells())

			run := func(killAt int) error {
				cmd := exec.Command(os.Args[0], "-test.run=TestGridKillResumeSubprocess$", "-test.v")
				cmd.Env = append(os.Environ(),
					"GRID_HELPER=1",
					"GRID_HELPER_JOURNAL="+journal,
					"GRID_HELPER_OUT="+out,
					"GRID_HELPER_KILL_AFTER="+strconv.Itoa(killAt),
					"GRID_HELPER_PAR="+strconv.Itoa(par),
				)
				var buf bytes.Buffer
				cmd.Stdout = &buf
				cmd.Stderr = &buf
				err := cmd.Run()
				if err != nil {
					t.Logf("child output:\n%s", buf.String())
				}
				return err
			}

			// Run 1: the child kills itself mid-sweep.
			err := run(killAfter)
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
				t.Fatalf("first run should die by SIGKILL, got %v", err)
			}

			// Run 2: resume from the journal, run to completion.
			if err := run(0); err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}

			// The resumed run's full output must match the golden stream.
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var rs []GridCellResult
			dec := json.NewDecoder(bytes.NewReader(data))
			for dec.More() {
				var r GridCellResult
				if err := dec.Decode(&r); err != nil {
					t.Fatalf("resumed output is not clean JSON lines: %v", err)
				}
				rs = append(rs, r)
			}
			if !bytes.Equal(jsonLines(rs), golden) {
				t.Fatalf("kill-and-resume output diverged from the uninterrupted run\ngot  %d records\nwant %d", len(rs), g.Cells())
			}
		})
	}
}

// gridKillHelper is the child side of TestGridKillResumeSubprocess: run
// the sweep with a journal and either SIGKILL after KILL_AFTER emitted
// cells or (resume mode) run to completion, writing records to OUT.
func gridKillHelper(t *testing.T) {
	journal := os.Getenv("GRID_HELPER_JOURNAL")
	out := os.Getenv("GRID_HELPER_OUT")
	killAfter, _ := strconv.Atoi(os.Getenv("GRID_HELPER_KILL_AFTER"))
	par, _ := strconv.Atoi(os.Getenv("GRID_HELPER_PAR"))

	j, err := robust.OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g, m := faultGrid(), faultMode()
	m.Parallelism = par
	enc := json.NewEncoder(f)
	emitted := 0
	var encErr error
	err = RunGrid(context.Background(), g, m, GridOptions{Journal: j, Resume: true}, nil, func(r GridCellResult) bool {
		if encErr = enc.Encode(r); encErr != nil {
			return false
		}
		emitted++
		if killAfter > 0 && emitted == killAfter {
			// A real crash: no deferred cleanup, no journal close, no
			// output flush beyond what already hit the file.
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		return true
	})
	if encErr != nil {
		t.Fatal(encErr)
	}
	if err != nil {
		t.Fatal(err)
	}
}
