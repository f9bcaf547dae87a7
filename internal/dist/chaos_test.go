//go:build unix

package dist

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/robust"
)

// The chaos acceptance test: two real worker processes join the sweep;
// one is built to stall forever on every cell (so it reliably holds a
// lease mid-cell) and is SIGKILLed. The coordinator must detect the
// dead lease via heartbeat silence, reassign its cells to the
// survivor, and still produce output byte-identical to an
// uninterrupted single-process run.
func TestDistChaosWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and waits out lease TTLs")
	}
	golden := goldenLines(t, testGrid12, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	co, err := NewCoordinator(Config{
		Grid: testGrid12, Windows: 2, Mode: testMode(),
		LeaseTTL:        500 * time.Millisecond,
		LeaseCells:      2,
		SoloAfter:       -1, // the survivor must finish it, not the coordinator
		ReassignBackoff: robust.Backoff{Base: 20 * time.Millisecond, Cap: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()

	var mu sync.Mutex
	var lines []string
	done := make(chan error, 1)
	go func() {
		done <- co.Run(ctx, ln, func(r experiments.GridCellResult) bool {
			b, merr := json.Marshal(r)
			if merr != nil {
				return false
			}
			mu.Lock()
			lines = append(lines, maskWall(string(b)))
			mu.Unlock()
			return true
		})
	}()

	spawn := func(id string, stall bool) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=TestDistWorkerHelperProcess$", "-test.v")
		cmd.Env = append(os.Environ(),
			"DIST_WORKER_HELPER=1",
			"DIST_WORKER_URL="+url,
			"DIST_WORKER_ID="+id,
			"DIST_WORKER_STALL="+strconv.FormatBool(stall),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning %s: %v", id, err)
		}
		return cmd
	}

	// The doomed worker joins first and stalls inside its first cell,
	// holding the lease. Only once it provably holds one does the
	// survivor join — so reassignment is exercised deterministically,
	// not raced.
	doomed := spawn("doomed", true)
	deadline := time.Now().Add(30 * time.Second)
	for co.StatsSnapshot().LiveLeases == 0 {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never took a lease")
		}
		time.Sleep(20 * time.Millisecond)
	}
	survivor := spawn("survivor", false)

	// Let the doomed worker heartbeat across a few TTLs (proving the
	// lease survives on heartbeats alone), then SIGKILL it mid-cell.
	time.Sleep(3 * 500 * time.Millisecond)
	if st := co.StatsSnapshot(); st.LeasesExpired != 0 {
		t.Fatalf("doomed worker's lease expired while it was alive and heartbeating: %+v", st)
	}
	if err := doomed.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	derr := doomed.Wait()
	if ee, ok := derr.(*exec.ExitError); !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("doomed worker exit: %v, want SIGKILL", derr)
	}

	if err := <-done; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor exit: %v", err)
	}

	st := co.StatsSnapshot()
	if st.LeasesExpired < 1 {
		t.Fatalf("the killed worker's lease never expired: %+v", st)
	}
	if st.CellsReassigned < 1 {
		t.Fatalf("no cells were reassigned after the kill: %+v", st)
	}
	if st.SoloCells != 0 {
		t.Fatalf("coordinator ran %d cells solo with a live survivor", st.SoloCells)
	}
	mu.Lock()
	defer mu.Unlock()
	assertSameLines(t, lines, golden)
}

// TestDistWorkerHelperProcess is the subprocess body for the chaos
// test: a real Worker over real HTTP. With DIST_WORKER_STALL=true its
// injector stalls every cell for an hour — the worker heartbeats
// (alive, lease renewed) but never completes anything, so a SIGKILL
// reliably lands mid-cell with a lease held.
func TestDistWorkerHelperProcess(t *testing.T) {
	if os.Getenv("DIST_WORKER_HELPER") != "1" {
		t.Skip("subprocess helper")
	}
	var inj *robust.Injector
	if os.Getenv("DIST_WORKER_STALL") == "true" {
		stalls := make(map[int]time.Duration)
		for i := 0; i < 1024; i++ {
			stalls[i] = time.Hour
		}
		inj = robust.NewInjector(1, robust.Plan{StallCells: stalls})
	}
	w := NewWorker(WorkerConfig{
		URL:         os.Getenv("DIST_WORKER_URL"),
		ID:          os.Getenv("DIST_WORKER_ID"),
		Parallelism: 1,
		MaxOffline:  30 * time.Second,
		Injector:    inj,
	})
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker %s: %v", w.ID(), err)
	}
}
