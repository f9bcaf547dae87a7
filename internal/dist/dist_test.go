package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/robust"
)

// The distributed runner's contract under test: coordinator + N
// workers produce output byte-identical to a single-process run modulo
// wall_ms — across worker counts, lease expiry and reassignment,
// duplicate reports, coordinator crash-resume, and solo fallback.

const (
	testGrid4  = "systems=Baseline,SILO;workloads=WebSearch,DataServing"
	testGrid12 = "systems=Baseline,SILO;workloads=WebSearch,DataServing;overrides=-|seed=2|seed=3"
)

// testMode mirrors the grid executor tests' fast mode: real warm-up and
// measurement, just tiny.
func testMode() experiments.Mode {
	return experiments.Mode{
		Name:          "dist-test",
		WarmInstr:     2000,
		WarmCycles:    500,
		MeasureCycles: 4000,
		Scale:         32,
		Parallelism:   1,
	}
}

// maskWall delegates to the one shared masking implementation — the
// byte-identity contract everywhere is "modulo wall_ms and nothing
// else", so every comparison must mask with the same code.
func maskWall(line string) string { return experiments.MaskWallMS(line) }

// goldenLines runs the grid single-process — the byte-identity
// reference — and returns its wall_ms-masked JSON lines.
func goldenLines(t *testing.T, grid string, windows int) []string {
	t.Helper()
	g, err := experiments.ParseGridSpec(grid, windows, 0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	err = experiments.RunGrid(context.Background(), g, testMode(), experiments.GridOptions{}, nil, func(r experiments.GridCellResult) bool {
		b, merr := json.Marshal(r)
		if merr != nil {
			t.Error(merr)
			return false
		}
		lines = append(lines, maskWall(string(b)))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

func assertSameLines(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("emitted %d lines, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d differs from the single-process run:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// startSweep launches a coordinator on loopback and returns its URL
// plus a wait func yielding the masked emitted lines and Run's error.
func startSweep(t *testing.T, ctx context.Context, cfg Config) (*Coordinator, string, func() ([]string, error)) {
	t.Helper()
	co, err := NewCoordinator(cfg)
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
	wait := func() ([]string, error) {
		err := <-done
		mu.Lock()
		defer mu.Unlock()
		return lines, err
	}
	return co, url, wait
}

func startWorker(t *testing.T, ctx context.Context, url, id string, par int) <-chan error {
	t.Helper()
	ch := make(chan error, 1)
	go func() {
		w := NewWorker(WorkerConfig{URL: url, ID: id, Parallelism: par, MaxOffline: 20 * time.Second})
		ch <- w.Run(ctx)
	}()
	return ch
}

func postJSON(t *testing.T, url string, req, resp any) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d", url, res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(resp); err != nil {
		t.Fatal(err)
	}
}

// The headline acceptance test: at 1, 2 and 4 workers the reassembled
// output is byte-identical to the single-process run modulo wall_ms.
func TestDistByteIdentityAcrossWorkerCounts(t *testing.T) {
	golden := goldenLines(t, testGrid12, 2)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			_, url, wait := startSweep(t, ctx, Config{
				Grid: testGrid12, Windows: 2, Mode: testMode(),
				LeaseTTL: 5 * time.Second, LeaseCells: 2, SoloAfter: -1,
			})
			var workers []<-chan error
			for i := 0; i < n; i++ {
				workers = append(workers, startWorker(t, ctx, url, fmt.Sprintf("w%d", i), 1))
			}
			lines, err := wait()
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			for i, ch := range workers {
				if werr := <-ch; werr != nil {
					t.Fatalf("worker %d: %v", i, werr)
				}
			}
			assertSameLines(t, lines, golden)
		})
	}
}

// A worker that takes a lease and vanishes (no heartbeat, no report)
// must have its cells reassigned after the TTL, and the sweep still
// matches the golden bytes.
func TestDistLeaseExpiryReassignsOrphans(t *testing.T) {
	golden := goldenLines(t, testGrid4, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	co, url, wait := startSweep(t, ctx, Config{
		Grid: testGrid4, Windows: 2, Mode: testMode(),
		LeaseTTL: 200 * time.Millisecond, SoloAfter: -1,
		ReassignBackoff: robust.Backoff{Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	// The phantom takes one cell and is never heard from again.
	var grant LeaseResponse
	postJSON(t, url+PathLease, LeaseRequest{WorkerID: "phantom", Max: 1}, &grant)
	if len(grant.Indices) != 1 {
		t.Fatalf("phantom lease got %v", grant.Indices)
	}
	// Wait out the TTL so the sweeper revokes it.
	deadline := time.Now().Add(5 * time.Second)
	for co.StatsSnapshot().LeasesExpired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("phantom's lease never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	wch := startWorker(t, ctx, url, "survivor", 1)
	lines, err := wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if werr := <-wch; werr != nil {
		t.Fatalf("survivor: %v", werr)
	}
	st := co.StatsSnapshot()
	if st.LeasesExpired < 1 || st.CellsReassigned < 1 {
		t.Fatalf("expected expiry + reassignment, got %+v", st)
	}
	assertSameLines(t, lines, golden)
}

// Heartbeats keep a lease alive well past several TTLs without any
// report traffic.
func TestDistHeartbeatKeepsLeaseAlive(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co, url, wait := startSweep(t, ctx, Config{
		Grid: testGrid4, Windows: 2, Mode: testMode(),
		LeaseTTL: 300 * time.Millisecond, SoloAfter: -1,
	})
	var grant LeaseResponse
	postJSON(t, url+PathLease, LeaseRequest{WorkerID: "beater", Max: 1}, &grant)
	if len(grant.Indices) == 0 {
		t.Fatal("no lease granted")
	}
	// Beat at TTL/3 for 4 TTLs: the lease must survive throughout.
	end := time.Now().Add(4 * 300 * time.Millisecond)
	for time.Now().Before(end) {
		var hb HeartbeatResponse
		postJSON(t, url+PathHeartbeat, HeartbeatRequest{WorkerID: "beater", LeaseID: grant.LeaseID}, &hb)
		if hb.Expired {
			t.Fatal("heartbeated lease expired")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if st := co.StatsSnapshot(); st.LeasesExpired != 0 {
		t.Fatalf("leases expired despite heartbeats: %+v", st)
	}
	cancel()
	if _, err := wait(); err == nil {
		t.Fatal("cancelled coordinator returned nil")
	}
}

// The same completed record reported twice (the lease-reassignment
// race) merges once: second delivery is counted as a duplicate and the
// sweep output still matches the golden bytes exactly.
func TestDistDuplicateReportMergesOnce(t *testing.T) {
	golden := goldenLines(t, testGrid4, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	co, url, wait := startSweep(t, ctx, Config{
		Grid: testGrid4, Windows: 2, Mode: testMode(),
		LeaseTTL: 5 * time.Second, SoloAfter: -1,
	})
	var grant LeaseResponse
	postJSON(t, url+PathLease, LeaseRequest{WorkerID: "dup", Max: 1}, &grant)
	if len(grant.Indices) != 1 {
		t.Fatalf("lease got %v", grant.Indices)
	}
	idx := grant.Indices[0]
	// Compute the cell's record the same way a worker would.
	g, err := experiments.ParseGridSpec(testGrid4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	err = experiments.RunGrid(ctx, g, testMode(), experiments.GridOptions{}, []int{idx}, func(r experiments.GridCellResult) bool {
		raw, _ = json.Marshal(r)
		return true
	})
	if err != nil || raw == nil {
		t.Fatalf("subset run: %v", err)
	}
	var rep ReportResponse
	postJSON(t, url+PathReport, ReportRequest{WorkerID: "dup", LeaseID: grant.LeaseID, Records: []json.RawMessage{raw}}, &rep)
	if !rep.OK || rep.Expired {
		t.Fatalf("first report: %+v", rep)
	}
	postJSON(t, url+PathReport, ReportRequest{WorkerID: "dup", LeaseID: grant.LeaseID, Records: []json.RawMessage{raw}}, &rep)
	if !rep.OK {
		t.Fatalf("second report: %+v", rep)
	}
	if d := co.StatsSnapshot().DuplicateReports; d != 1 {
		t.Fatalf("DuplicateReports = %d, want 1", d)
	}
	wch := startWorker(t, ctx, url, "finisher", 1)
	lines, err := wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if werr := <-wch; werr != nil {
		t.Fatalf("finisher: %v", werr)
	}
	assertSameLines(t, lines, golden)
}

// A coordinator killed mid-sweep resumes from its fsync'd journal:
// journaled cells are neither re-leased nor re-run, and the resumed
// sweep's full output is byte-identical to the golden run.
func TestDistCoordinatorJournalResume(t *testing.T) {
	golden := goldenLines(t, testGrid12, 2)
	jpath := filepath.Join(t.TempDir(), "coord.journal")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Run 1: abort from the output side after two records — the
	// "coordinator died" stand-in (the journal state is identical).
	j1, err := robust.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	co1, err := NewCoordinator(Config{
		Grid: testGrid12, Windows: 2, Mode: testMode(),
		LeaseTTL: 5 * time.Second, SoloAfter: -1, Journal: j1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w1 := startWorker(t, ctx, "http://"+ln.Addr().String(), "w1", 1)
	emitted := 0
	runErr := co1.Run(ctx, ln, func(experiments.GridCellResult) bool {
		emitted++
		return emitted < 2
	})
	if runErr == nil {
		t.Fatal("aborted run 1 returned nil")
	}
	<-w1
	j1.Close()

	// Run 2: resume from the journal; a fresh worker finishes the rest.
	j2, err := robust.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() < 2 {
		t.Fatalf("journal has %d entries after aborted run, want >= 2", j2.Len())
	}
	co2, url, wait := startSweep(t, ctx, Config{
		Grid: testGrid12, Windows: 2, Mode: testMode(),
		LeaseTTL: 5 * time.Second, SoloAfter: -1, Journal: j2, Resume: true,
	})
	if got := co2.StatsSnapshot().Completed; got < 2 {
		t.Fatalf("resume prefilled %d cells, want >= 2", got)
	}
	w2 := startWorker(t, ctx, url, "w2", 1)
	lines, err := wait()
	if err != nil {
		t.Fatalf("resumed coordinator: %v", err)
	}
	if werr := <-w2; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	assertSameLines(t, lines, golden)
}

// slowWriteListener delays every server-side write, holding each reply
// in flight long after its handler has returned.
type slowWriteListener struct {
	net.Listener
	delay time.Duration
}

func (l slowWriteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowWriteConn{c, l.delay}, nil
}

type slowWriteConn struct {
	net.Conn
	delay time.Duration
}

func (c slowWriteConn) Write(b []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(b)
}

// The coordinator must deliver its last reply before it stops serving.
// A report marks its worker told before the reply carrying Done is
// written, so the linger loop can see every worker told while that
// reply is still in flight; stopping the server then strands the worker
// retrying a closed port until MaxOffline.
func TestDistLastReplyDeliveredBeforeShutdown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	co, err := NewCoordinator(Config{
		Grid: testGrid4, Windows: 2, Mode: testMode(),
		LeaseTTL: 5 * time.Second, SoloAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wch := make(chan error, 1)
	go func() {
		w := NewWorker(WorkerConfig{URL: "http://" + ln.Addr().String(), ID: "w", Parallelism: 1, MaxOffline: 3 * time.Second})
		wch <- w.Run(ctx)
	}()
	slow := slowWriteListener{ln, 300 * time.Millisecond}
	if err := co.Run(ctx, slow, func(experiments.GridCellResult) bool { return true }); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := <-wch; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// Graceful degradation: with no worker ever joining, the coordinator
// finishes the sweep itself after SoloAfter — same bytes.
func TestDistSoloFallbackCompletesSweep(t *testing.T) {
	golden := goldenLines(t, testGrid4, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	co, _, wait := startSweep(t, ctx, Config{
		Grid: testGrid4, Windows: 2, Mode: testMode(),
		LeaseTTL: 400 * time.Millisecond, SoloAfter: 100 * time.Millisecond,
	})
	lines, err := wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	st := co.StatsSnapshot()
	if st.SoloCells != len(golden) {
		t.Fatalf("solo ran %d cells, want %d", st.SoloCells, len(golden))
	}
	assertSameLines(t, lines, golden)
}

// Worker shard journals salvage into a fresh coordinator's resume set
// (-resume-shards): every cell prefills by content hash and the sweep
// emits without re-running anything.
func TestDistShardJournalSalvage(t *testing.T) {
	golden := goldenLines(t, testGrid4, 2)
	shard := filepath.Join(t.TempDir(), "shard.journal")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Sweep 1: one worker keeping a per-shard journal completes everything.
	_, url, wait := startSweep(t, ctx, Config{
		Grid: testGrid4, Windows: 2, Mode: testMode(),
		LeaseTTL: 5 * time.Second, SoloAfter: -1,
	})
	wch := make(chan error, 1)
	go func() {
		w := NewWorker(WorkerConfig{URL: url, ID: "journaling", Parallelism: 1, MaxOffline: 20 * time.Second, JournalPath: shard})
		defer w.Close()
		wch <- w.Run(ctx)
	}()
	if _, err := wait(); err != nil {
		t.Fatalf("sweep 1: %v", err)
	}
	if werr := <-wch; werr != nil {
		t.Fatalf("sweep 1 worker: %v", werr)
	}

	// Sweep 2: a brand-new coordinator resumes purely from the salvaged
	// shard journal — zero workers, solo disabled, nothing to run.
	co2, _, wait2 := startSweep(t, ctx, Config{
		Grid: testGrid4, Windows: 2, Mode: testMode(),
		LeaseTTL: 5 * time.Second, SoloAfter: -1,
		Resume: true, ResumeShards: []string{shard},
	})
	lines, err := wait2()
	if err != nil {
		t.Fatalf("sweep 2: %v", err)
	}
	if got := co2.StatsSnapshot().Completed; got != len(golden) {
		t.Fatalf("salvage prefilled %d cells, want %d", got, len(golden))
	}
	assertSameLines(t, lines, golden)
}

// A version-skewed worker must refuse to join rather than contribute
// records computed under different semantics.
func TestDistWorkerRefusesVersionMismatch(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(PathSpec, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, SpecResponse{Version: "dist-v0", Salt: experiments.GridJournalSalt})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	w := NewWorker(WorkerConfig{URL: "http://" + ln.Addr().String(), MaxOffline: time.Second})
	if err := w.Run(context.Background()); err == nil {
		t.Fatal("worker joined a version-mismatched coordinator")
	}
}

// Durations cross the wire exactly: a joining worker's watchdog, retry
// backoff and lease TTL equal the coordinator's to the nanosecond, so a
// cell times out and retries the same on a worker as in the solo loop.
func TestDistDurationsExact(t *testing.T) {
	cfg := Config{
		Grid: testGrid4, Mode: testMode(),
		CellDeadline: 1500 * time.Microsecond,
		Backoff:      robust.Backoff{Base: 1500 * time.Microsecond, Cap: 2500 * time.Microsecond},
		LeaseTTL:     1500*time.Millisecond + 500*time.Microsecond,
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	w := NewWorker(WorkerConfig{URL: srv.URL, ID: "w", MaxOffline: time.Second})
	defer w.Close()
	ctx := context.Background()
	if err := w.fetchSpec(ctx); err != nil {
		t.Fatal(err)
	}
	if w.opts.CellDeadline != cfg.CellDeadline || w.opts.Backoff != cfg.Backoff {
		t.Fatalf("worker options: deadline %v backoff %+v; want %v %+v", w.opts.CellDeadline, w.opts.Backoff, cfg.CellDeadline, cfg.Backoff)
	}
	var lease LeaseResponse
	if err := w.post(ctx, PathLease, LeaseRequest{WorkerID: "w", Max: 1}, &lease); err != nil {
		t.Fatal(err)
	}
	if len(lease.Indices) != 1 || lease.TTL != cfg.LeaseTTL {
		t.Fatalf("lease %+v; want one cell with TTL %v", lease, cfg.LeaseTTL)
	}
}
