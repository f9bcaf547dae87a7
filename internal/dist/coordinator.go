package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/robust"
)

// Coordinator defaults.
const (
	DefaultLeaseTTL   = 10 * time.Second
	DefaultLeaseCells = 1
)

// Config configures a Coordinator. Grid/Windows/Confidence/Mode name
// the sweep exactly as `paperbench grid` would; OnError, Retries,
// Backoff and CellDeadline are dictated to every worker so a cell
// behaves identically wherever it lands.
type Config struct {
	Grid       string
	Windows    int
	Confidence float64
	Mode       experiments.Mode // host-local knobs used by the solo path

	OnError      robust.FailPolicy
	Retries      int
	Backoff      robust.Backoff // worker-side retry pacing
	CellDeadline time.Duration

	// Journal, when non-nil, records every successfully completed cell
	// fsync'd — the coordinator's crash-resume state. With Resume,
	// journaled cells are neither leased nor re-run; their records
	// re-emit from the journal.
	Journal *robust.Journal
	Resume  bool
	// ResumeShards are extra journal files (workers' per-shard journals
	// salvaged after a crash) merged into the resume set by content-hash
	// key; entries for other sweeps simply never match.
	ResumeShards []string

	// LeaseTTL is how long a lease lives without a heartbeat or report;
	// 0 selects DefaultLeaseTTL. Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// LeaseCells caps cells per lease; 0 selects DefaultLeaseCells.
	LeaseCells int
	// ReassignBackoff paces re-handout of a cell whose lease expired —
	// a cell that keeps killing workers must not hot-loop across the
	// fleet. The zero value uses 250ms doubling, capped at 10s.
	ReassignBackoff robust.Backoff
	// SoloAfter is the graceful-degradation deadline: when no worker
	// has been heard from for this long and cells remain, the
	// coordinator executes them itself (through the same lease table).
	// 0 selects 4*LeaseTTL; negative disables solo execution.
	SoloAfter time.Duration

	// Logf, when non-nil, receives operational events (lease expiry,
	// reassignment, solo activation) — the CLI points it at stderr.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of coordinator state, for logging
// and tests.
type Stats struct {
	Cells            int
	Completed        int
	Emitted          int
	LiveLeases       int
	LeasesGranted    int
	LeasesExpired    int
	CellsReassigned  int
	DuplicateReports int
	WorkersSeen      int
	SoloCells        int
}

// lease is one outstanding work batch.
type lease struct {
	id      uint64
	worker  string
	pending map[int]bool
	expires time.Time
	// pinned marks the in-process solo executor's lease: it cannot be
	// SIGKILLed without taking the coordinator down, so it never
	// expires (a stuck solo cell is governed by CellDeadline instead).
	pinned bool
}

// Coordinator owns the lease table and reassembles worker reports into
// the sweep's ordered output stream.
type Coordinator struct {
	cfg  Config
	spec experiments.GridSpec
	keys []string
	n    int

	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	queue       []int // unassigned cell indices, ascending
	notBefore   map[int]time.Time
	attempts    []int
	leases      map[uint64]*lease
	nextLeaseID uint64
	records     []json.RawMessage // completed cell records; nil = incomplete
	completed   int
	emitted     int
	lastWorker  time.Time
	workers     map[string]bool
	told        map[string]bool // workers that have received Done
	soloRunning bool
	soloCells   int
	fatal       error
	stats       Stats

	notify chan struct{}
}

// NewCoordinator compiles the grid and prepares the lease table,
// loading the resume set when configured. It does not start serving;
// call Run.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	spec, err := experiments.ParseGridSpec(cfg.Grid, cfg.Windows, cfg.Confidence)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	keys, err := experiments.GridCellKeys(spec, cfg.Mode)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.LeaseCells <= 0 {
		cfg.LeaseCells = DefaultLeaseCells
	}
	if cfg.ReassignBackoff == (robust.Backoff{}) {
		cfg.ReassignBackoff = robust.Backoff{Base: 250 * time.Millisecond, Cap: 10 * time.Second}
	}
	if cfg.SoloAfter == 0 {
		cfg.SoloAfter = 4 * cfg.LeaseTTL
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	c := &Coordinator{
		cfg:       cfg,
		spec:      spec,
		keys:      keys,
		n:         len(keys),
		notBefore: make(map[int]time.Time),
		attempts:  make([]int, len(keys)),
		leases:    make(map[uint64]*lease),
		records:   make([]json.RawMessage, len(keys)),
		workers:   make(map[string]bool),
		told:      make(map[string]bool),
		notify:    make(chan struct{}, 1),
	}

	if err := c.loadResume(); err != nil {
		return nil, err
	}
	for i := range c.records {
		if c.records[i] == nil {
			c.queue = append(c.queue, i)
		}
	}
	return c, nil
}

// loadResume prefills completed cells from the coordinator journal and
// any salvaged per-shard journals. Matching cellExecutor's resume
// semantics, a journaled record that fails to decode or recorded a
// failure is distrusted — the cell re-runs.
func (c *Coordinator) loadResume() error {
	if !c.cfg.Resume {
		return nil
	}
	entries := make(map[string]json.RawMessage)
	if c.cfg.Journal != nil {
		for k, v := range c.cfg.Journal.Entries() {
			entries[k] = v
		}
	}
	if len(c.cfg.ResumeShards) > 0 {
		merged, dropped, err := robust.MergeJournalEntries(c.cfg.ResumeShards...)
		if err != nil {
			return fmt.Errorf("dist: resume shards: %w", err)
		}
		if dropped > 0 {
			c.cfg.Logf("dist: shard journals: dropped %d bytes of torn tails", dropped)
		}
		for k, v := range merged {
			entries[k] = v
		}
	}
	for i, key := range c.keys {
		raw, ok := entries[key]
		if !ok {
			continue
		}
		var r experiments.GridCellResult
		if err := json.Unmarshal(raw, &r); err != nil || r.Error != nil {
			continue
		}
		c.records[i] = raw
		c.completed++
		// Re-journal shard-sourced entries so the coordinator journal
		// alone carries the full resume state from here on.
		if c.cfg.Journal != nil {
			if _, inOwn := c.cfg.Journal.Entries()[key]; !inOwn {
				if err := c.cfg.Journal.Append(key, raw); err != nil {
					return fmt.Errorf("dist: %w", err)
				}
			}
		}
	}
	if c.completed > 0 {
		c.cfg.Logf("dist: resuming — %d of %d cells journaled", c.completed, c.n)
	}
	return nil
}

// Handler returns the coordinator's HTTP handler (also useful under a
// test server).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathSpec, c.handleSpec)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathReport, c.handleReport)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	return mux
}

// Run serves the protocol on ln and blocks until the sweep completes
// (every record emitted, in enumeration order, via emit), the context
// is cancelled, or a worker reports a fail-fast fatal error. emit
// returning false aborts the sweep. Run closes ln before returning.
func (c *Coordinator) Run(ctx context.Context, ln net.Listener, emit func(experiments.GridCellResult) bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.ctx, c.cancel = ctx, cancel
	c.mu.Lock()
	c.lastWorker = time.Now() // the solo clock starts now
	c.mu.Unlock()

	srv := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sweep := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer sweep.Stop()
	solo := time.NewTicker(c.cfg.LeaseTTL / 2)
	defer solo.Stop()

	emitAborted := false
loop:
	for {
		// Drain everything emittable at the cursor.
		c.mu.Lock()
		for c.emitted < c.n && c.records[c.emitted] != nil {
			raw := c.records[c.emitted]
			c.emitted++
			c.mu.Unlock()
			var r experiments.GridCellResult
			if err := json.Unmarshal(raw, &r); err != nil {
				// Unreachable for records we accepted, but never emit junk.
				c.mu.Lock()
				c.fatal = fmt.Errorf("dist: corrupt record for cell %d: %w", c.emitted-1, err)
				cancel()
				break
			}
			if !emit(r) {
				emitAborted = true
				cancel()
			}
			c.mu.Lock()
		}
		done := c.emitted == c.n
		fatal := c.fatal
		c.mu.Unlock()

		if done || fatal != nil || ctx.Err() != nil || emitAborted {
			break loop
		}

		select {
		case <-c.notify:
		case <-sweep.C:
			c.expireLeases(time.Now())
		case <-solo.C:
			c.maybeStartSolo()
		case <-ctx.Done():
		}
	}

	// Keep serving Done briefly so idle workers polling /lease learn the
	// sweep finished and exit cleanly, instead of finding a dead address
	// and burning their MaxOffline retry budget. The linger ends early
	// once every worker we ever heard from has received Done; workers
	// that died mid-sweep cost the full window.
	c.mu.Lock()
	finished := c.emitted == c.n && c.fatal == nil && !emitAborted
	fatal := c.fatal
	c.mu.Unlock()
	if finished {
		deadline := time.Now().Add(2500 * time.Millisecond)
		for time.Now().Before(deadline) {
			c.mu.Lock()
			all := true
			for w := range c.workers {
				if !c.told[w] {
					all = false
					break
				}
			}
			c.mu.Unlock()
			if all {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	// Shutdown, not Close: a worker is marked told before its handler
	// writes the reply carrying Done, so the linger above can end while
	// that reply is in flight. Shutdown lets in-flight handlers finish;
	// Close would cut the reply and strand the worker retrying a closed
	// port until MaxOffline.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	if srv.Shutdown(sctx) != nil {
		srv.Close()
	}
	scancel()
	<-serveErr

	switch {
	case fatal != nil:
		return fatal
	case emitAborted:
		return errors.New("dist: output writer aborted the sweep")
	case !finished:
		return ctx.Err()
	default:
		return nil
	}
}

// wake nudges the Run loop without blocking.
func (c *Coordinator) wake() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// StatsSnapshot reports current progress.
func (c *Coordinator) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Cells = c.n
	s.Completed = c.completed
	s.Emitted = c.emitted
	s.LiveLeases = len(c.leases)
	s.WorkersSeen = len(c.workers)
	s.SoloCells = c.soloCells
	return s
}

// --- protocol handlers ---------------------------------------------------

// maxBody bounds request bodies; a lease batch of records is at most a
// few hundred KB of JSON.
const maxBody = 16 << 20

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, SpecResponse{
		Version:    ProtocolVersion,
		Salt:       experiments.GridJournalSalt,
		Grid:       c.cfg.Grid,
		Windows:    c.cfg.Windows,
		Confidence: c.cfg.Confidence,
		Mode:       ModeSpecOf(c.cfg.Mode),
		Options: OptionsSpec{
			OnError:      c.cfg.OnError.String(),
			Retries:      c.cfg.Retries,
			Backoff:      c.cfg.Backoff.Base,
			BackoffCap:   c.cfg.Backoff.Cap,
			CellDeadline: c.cfg.CellDeadline,
		},
		Cells:           c.n,
		ScenarioDigests: c.spec.ScenarioDigests(),
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, c.grantLease(req.WorkerID, req.Max, false))
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, c.report(req))
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sawWorkerLocked(req.WorkerID)
	if c.completed == c.n {
		c.told[req.WorkerID] = true
		writeJSON(w, HeartbeatResponse{OK: true, Done: true})
		return
	}
	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.WorkerID {
		writeJSON(w, HeartbeatResponse{Expired: true})
		return
	}
	l.expires = time.Now().Add(c.cfg.LeaseTTL)
	writeJSON(w, HeartbeatResponse{OK: true})
}

// sawWorkerLocked records worker liveness (c.mu held). Solo execution
// never counts: a solo coordinator must not postpone its own fallback.
func (c *Coordinator) sawWorkerLocked(worker string) {
	if worker == soloWorkerID {
		return
	}
	c.lastWorker = time.Now()
	if worker != "" && !c.workers[worker] {
		c.workers[worker] = true
		c.cfg.Logf("dist: worker %s joined", worker)
	}
}

// grantLease pops up to max eligible cells off the queue into a new
// lease. pinned marks the solo executor's lease.
func (c *Coordinator) grantLease(worker string, max int, pinned bool) LeaseResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sawWorkerLocked(worker)
	if c.completed == c.n || c.fatal != nil || c.ctx != nil && c.ctx.Err() != nil {
		c.told[worker] = true
		return LeaseResponse{Done: true}
	}
	batch := c.cfg.LeaseCells
	if max > 0 && max < batch {
		batch = max
	}
	var grant []int
	rest := c.queue[:0]
	for _, idx := range c.queue {
		if len(grant) < batch && !now.Before(c.notBefore[idx]) {
			grant = append(grant, idx)
			continue
		}
		rest = append(rest, idx)
	}
	c.queue = rest
	if len(grant) == 0 {
		// Nothing eligible now: backoff-delayed orphans or everything
		// out on other leases. Poll again soon — capped at 1s so idle
		// workers also catch the post-completion linger window.
		retry := c.cfg.LeaseTTL / 4
		if retry > time.Second {
			retry = time.Second
		}
		return LeaseResponse{Retry: retry}
	}
	c.nextLeaseID++
	l := &lease{
		id:      c.nextLeaseID,
		worker:  worker,
		pending: make(map[int]bool, len(grant)),
		expires: now.Add(c.cfg.LeaseTTL),
		pinned:  pinned,
	}
	for _, idx := range grant {
		l.pending[idx] = true
		c.attempts[idx]++
		delete(c.notBefore, idx)
	}
	c.leases[l.id] = l
	c.stats.LeasesGranted++
	return LeaseResponse{
		LeaseID: l.id,
		Indices: grant,
		TTL:     c.cfg.LeaseTTL,
	}
}

// report merges a batch of completed records: first completion wins,
// duplicates (the lease-reassignment race) are dropped, successes are
// journaled, and the emitter is woken. A report is proof of life, so
// it also renews the lease.
func (c *Coordinator) report(req ReportRequest) ReportResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sawWorkerLocked(req.WorkerID)

	if req.Fatal != "" {
		if c.fatal == nil {
			c.fatal = fmt.Errorf("dist: worker %s: %s", req.WorkerID, req.Fatal)
		}
		if c.cancel != nil {
			c.cancel()
		}
		c.wakeLocked()
		return ReportResponse{OK: true, Done: true}
	}

	l, haveLease := c.leases[req.LeaseID]
	if haveLease && l.worker != req.WorkerID {
		haveLease = false
	}
	for _, raw := range req.Records {
		var r experiments.GridCellResult
		if err := json.Unmarshal(raw, &r); err != nil {
			continue // a malformed record cannot be attributed; drop it
		}
		idx := r.Index
		if idx < 0 || idx >= c.n {
			continue
		}
		if c.records[idx] != nil {
			c.stats.DuplicateReports++
			continue
		}
		c.records[idx] = raw
		c.completed++
		// Journal successes only: failure records deliberately re-run on
		// resume, matching the single-process executor.
		if c.cfg.Journal != nil && r.Error == nil {
			if err := c.cfg.Journal.Append(c.keys[idx], raw); err != nil {
				if c.fatal == nil {
					c.fatal = fmt.Errorf("dist: journal: %w", err)
				}
				if c.cancel != nil {
					c.cancel()
				}
			}
		}
		// The cell may still sit in the queue (late report after its
		// lease expired and the cell was requeued) or in another lease
		// (already reassigned); scrub the queue so it is never granted
		// again. A reassigned lease-holder's duplicate drops above.
		for qi, q := range c.queue {
			if q == idx {
				c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
				break
			}
		}
		if haveLease {
			delete(l.pending, idx)
		}
	}
	if haveLease {
		l.expires = time.Now().Add(c.cfg.LeaseTTL)
		if len(l.pending) == 0 {
			delete(c.leases, l.id)
		}
	}
	c.wakeLocked()
	done := c.completed == c.n
	if done {
		c.told[req.WorkerID] = true
	}
	return ReportResponse{
		OK:      true,
		Expired: !haveLease,
		Done:    done,
	}
}

// wakeLocked is wake for callers already holding c.mu.
func (c *Coordinator) wakeLocked() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// expireLeases revokes leases whose holder went silent past the TTL
// and requeues their unfinished cells, paced by the reassignment
// backoff so a worker-killing cell cannot hot-loop across the fleet.
func (c *Coordinator) expireLeases(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, l := range c.leases {
		if l.pinned || now.Before(l.expires) {
			continue
		}
		delete(c.leases, id)
		c.stats.LeasesExpired++
		requeued := 0
		for idx := range l.pending {
			if c.records[idx] != nil {
				continue // completed by someone else meanwhile
			}
			c.notBefore[idx] = now.Add(c.cfg.ReassignBackoff.Delay(c.attempts[idx] - 1))
			c.insertQueueLocked(idx)
			requeued++
			c.stats.CellsReassigned++
		}
		c.cfg.Logf("dist: lease %d (worker %s) expired; %d cell(s) requeued", id, l.worker, requeued)
	}
	c.wakeLocked() // the Run loop re-checks solo eligibility
}

// insertQueueLocked inserts idx keeping the queue ascending, so
// handout prefers the lowest unfinished indices and the reassembly
// window stays small.
func (c *Coordinator) insertQueueLocked(idx int) {
	at := sort.SearchInts(c.queue, idx)
	if at < len(c.queue) && c.queue[at] == idx {
		return
	}
	c.queue = append(c.queue, 0)
	copy(c.queue[at+1:], c.queue[at:])
	c.queue[at] = idx
}

// --- solo fallback -------------------------------------------------------

// soloWorkerID names the coordinator's in-process executor in the
// lease table and logs.
const soloWorkerID = "(solo)"

// maybeStartSolo activates the in-process executor when every worker
// has vanished: no live leases, cells waiting, and no worker heard
// from within SoloAfter.
func (c *Coordinator) maybeStartSolo() {
	if c.cfg.SoloAfter < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.soloRunning || c.completed == c.n || c.fatal != nil {
		return
	}
	if len(c.leases) > 0 || len(c.queue) == 0 {
		return
	}
	if time.Since(c.lastWorker) < c.cfg.SoloAfter {
		return
	}
	c.soloRunning = true
	c.cfg.Logf("dist: no workers for %v — finishing the sweep solo", c.cfg.SoloAfter)
	go c.soloLoop()
}

// soloLoop leases batches from the coordinator's own table and runs
// them in-process through experiments.RunGrid, as workers do,
// reporting through the same merge path. It exits when no work is
// eligible; the monitor restarts it if orphans reappear.
func (c *Coordinator) soloLoop() {
	defer func() {
		c.mu.Lock()
		c.soloRunning = false
		c.mu.Unlock()
	}()
	opts := experiments.GridOptions{
		OnError:      c.cfg.OnError,
		Retries:      c.cfg.Retries,
		Backoff:      c.cfg.Backoff,
		CellDeadline: c.cfg.CellDeadline,
	}
	for c.ctx.Err() == nil {
		grant := c.grantLease(soloWorkerID, 0, true)
		if grant.Done || len(grant.Indices) == 0 {
			return
		}
		err := experiments.RunGrid(c.ctx, c.spec, c.cfg.Mode, opts, grant.Indices, func(r experiments.GridCellResult) bool {
			raw, merr := json.Marshal(r)
			if merr != nil {
				return false
			}
			c.mu.Lock()
			c.soloCells++
			c.mu.Unlock()
			// Done in the response just means this record finished the
			// sweep; keep draining the batch either way.
			c.report(ReportRequest{WorkerID: soloWorkerID, LeaseID: grant.LeaseID, Records: []json.RawMessage{raw}})
			return true
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			c.report(ReportRequest{WorkerID: soloWorkerID, Fatal: err.Error()})
			return
		}
		// Drop the lease if the batch ended early (cancel): expiry would
		// also reclaim it, but pinned leases never expire.
		c.mu.Lock()
		if l, ok := c.leases[grant.LeaseID]; ok {
			for idx := range l.pending {
				if c.records[idx] == nil {
					c.insertQueueLocked(idx)
				}
			}
			delete(c.leases, grant.LeaseID)
		}
		c.mu.Unlock()
	}
}
