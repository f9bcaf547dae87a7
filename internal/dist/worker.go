package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/robust"
)

// DefaultMaxOffline is how long a worker keeps retrying an unreachable
// coordinator before giving up. Long enough to ride out a coordinator
// crash-restart, short enough that an orphaned worker does not burn a
// host forever.
const DefaultMaxOffline = 2 * time.Minute

// WorkerConfig configures a worker. Only host-local knobs live here —
// everything that determines record bytes arrives from the coordinator
// in the spec.
type WorkerConfig struct {
	URL string // coordinator base URL, e.g. http://host:9377
	ID  string // worker identity for leases/logs; default "host:pid"

	// Host-layout knobs, the worker's own flags (DESIGN.md §11: none of
	// them changes emitted bytes).
	Parallelism   int
	CheckpointDir string

	// JournalPath, when set, keeps a per-shard journal of completed
	// cells. It makes a restarted worker skip re-simulating cells it
	// already finished, and it is the salvage input for the
	// coordinator's -resume-shards.
	JournalPath string

	// MaxOffline bounds transport retries; 0 selects DefaultMaxOffline.
	MaxOffline time.Duration

	// Injector injects deterministic faults into leased cells
	// (tests/CI chaos harness only).
	Injector *robust.Injector

	Client *http.Client // default http.DefaultClient
	Logf   func(format string, args ...any)
}

// Worker pulls lease batches from a coordinator, runs them through the
// fault-tolerant grid executor, and streams each completed record
// back as soon as it exists — a SIGKILL loses at most the in-flight
// cells of one lease.
type Worker struct {
	cfg  WorkerConfig
	spec experiments.GridSpec
	mode experiments.Mode
	opts experiments.GridOptions
}

// NewWorker fills defaults; the grid arrives at Run time.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if cfg.MaxOffline <= 0 {
		cfg.MaxOffline = DefaultMaxOffline
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{cfg: cfg}
}

// ID reports the worker's identity (useful when defaulted).
func (w *Worker) ID() string { return w.cfg.ID }

// errLeaseLost aborts a batch whose lease expired under us; the worker
// leases anew rather than exiting.
var errLeaseLost = errors.New("dist: lease lost")

// Run joins the coordinator and works until the sweep completes (nil),
// the context is cancelled (ctx.Err()), the coordinator stays
// unreachable past MaxOffline, or a fail-fast cell failure aborts the
// sweep.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.fetchSpec(ctx); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		max := w.mode.Parallelism
		if max < 1 {
			max = 1
		}
		if err := w.post(ctx, PathLease, LeaseRequest{WorkerID: w.cfg.ID, Max: max}, &lease); err != nil {
			return err
		}
		if lease.Done {
			w.cfg.Logf("dist: worker %s: sweep complete", w.cfg.ID)
			return nil
		}
		if len(lease.Indices) == 0 {
			retry := lease.Retry
			if retry <= 0 {
				retry = 250 * time.Millisecond
			}
			select {
			case <-time.After(retry):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		done, err := w.runBatch(ctx, lease)
		if err != nil {
			if errors.Is(err, errLeaseLost) {
				w.cfg.Logf("dist: worker %s: lease %d expired; re-leasing", w.cfg.ID, lease.LeaseID)
				continue
			}
			return err
		}
		if done {
			w.cfg.Logf("dist: worker %s: sweep complete", w.cfg.ID)
			return nil
		}
	}
}

// fetchSpec pulls and cross-checks the sweep definition, then compiles
// the grid locally. Version and salt mismatches are refusals, not
// retries: a worker built from different simulation semantics must not
// contribute records.
func (w *Worker) fetchSpec(ctx context.Context) error {
	var spec SpecResponse
	if err := w.post(ctx, PathSpec, struct{}{}, &spec); err != nil {
		return err
	}
	if spec.Version != ProtocolVersion {
		return fmt.Errorf("dist: coordinator speaks %q, this worker %q — rebuild the older side", spec.Version, ProtocolVersion)
	}
	if spec.Salt != experiments.GridJournalSalt {
		return fmt.Errorf("dist: coordinator journal salt %q != %q — simulation semantics differ, refusing to join", spec.Salt, experiments.GridJournalSalt)
	}
	g, err := experiments.ParseGridSpec(spec.Grid, spec.Windows, spec.Confidence)
	if err != nil {
		return fmt.Errorf("dist: compiling coordinator grid: %w", err)
	}
	if g.Cells() != spec.Cells {
		return fmt.Errorf("dist: grid compiles to %d cells here, %d at the coordinator — refusing to join", g.Cells(), spec.Cells)
	}
	// The grid string names scenario files, not contents; hash-compare
	// the local copies against the coordinator's so a stale spec or
	// trace on this host can't contribute records keyed to a different
	// scenario.
	if local := g.ScenarioDigests(); !slices.Equal(local, spec.ScenarioDigests) {
		return fmt.Errorf("dist: scenario digests here %v != coordinator %v — spec or trace files differ on this host, refusing to join",
			local, spec.ScenarioDigests)
	}
	onErr, err := robust.ParseFailPolicy(spec.Options.OnError)
	if err != nil {
		return fmt.Errorf("dist: coordinator options: %w", err)
	}
	w.spec = g
	w.mode = spec.Mode.Mode()
	w.mode.Parallelism = w.cfg.Parallelism
	w.mode.CheckpointDir = w.cfg.CheckpointDir
	w.opts = experiments.GridOptions{
		OnError:      onErr,
		Retries:      spec.Options.Retries,
		Backoff:      robust.Backoff{Base: spec.Options.Backoff, Cap: spec.Options.BackoffCap},
		CellDeadline: spec.Options.CellDeadline,
		Injector:     w.cfg.Injector,
	}
	if w.cfg.JournalPath != "" {
		j, err := robust.OpenJournal(w.cfg.JournalPath)
		if err != nil {
			return fmt.Errorf("dist: shard journal: %w", err)
		}
		w.opts.Journal = j
		w.opts.Resume = true
	}
	w.cfg.Logf("dist: worker %s joined: %d cells, mode %s", w.cfg.ID, spec.Cells, w.mode.Name)
	return nil
}

// runBatch executes one lease: heartbeats keep it alive, each record
// reports the moment it completes. Returns done=true when a report
// response said the sweep finished.
func (w *Worker) runBatch(ctx context.Context, lease LeaseResponse) (done bool, err error) {
	ttl := lease.TTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	bctx, bcancel := context.WithCancel(ctx)
	defer bcancel()

	// Heartbeat at TTL/3 so two beats can be lost before the lease
	// expires. A beat that learns the lease is gone (or the sweep done)
	// cancels the batch.
	var hbExpired, hbDone bool
	hbStopped := make(chan struct{})
	go func() {
		defer close(hbStopped)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-bctx.Done():
				return
			case <-t.C:
				var resp HeartbeatResponse
				if herr := w.post(bctx, PathHeartbeat, HeartbeatRequest{WorkerID: w.cfg.ID, LeaseID: lease.LeaseID}, &resp); herr != nil {
					bcancel()
					return
				}
				if resp.Done {
					hbDone = true
					bcancel()
					return
				}
				if resp.Expired {
					hbExpired = true
					bcancel()
					return
				}
			}
		}
	}()

	var reportErr error
	runErr := experiments.RunGrid(bctx, w.spec, w.mode, w.opts, lease.Indices, func(r experiments.GridCellResult) bool {
		raw, merr := json.Marshal(r)
		if merr != nil {
			reportErr = merr
			return false
		}
		var resp ReportResponse
		if perr := w.post(bctx, PathReport, ReportRequest{
			WorkerID: w.cfg.ID,
			LeaseID:  lease.LeaseID,
			Records:  []json.RawMessage{raw},
		}, &resp); perr != nil {
			reportErr = perr
			return false
		}
		if resp.Done {
			done = true
			return false // any cells left in this lease completed elsewhere
		}
		if resp.Expired {
			reportErr = errLeaseLost
			return false
		}
		return true
	})
	bcancel()
	<-hbStopped

	switch {
	case ctx.Err() != nil:
		return false, ctx.Err()
	case hbDone || done:
		return true, nil
	case hbExpired || errors.Is(reportErr, errLeaseLost):
		return false, errLeaseLost
	case reportErr != nil:
		return false, reportErr
	case runErr != nil && !errors.Is(runErr, context.Canceled):
		// A fail-fast permanent cell failure (or executor validation
		// error): abort the whole sweep, then exit with it.
		var fr ReportResponse
		_ = w.post(ctx, PathReport, ReportRequest{WorkerID: w.cfg.ID, Fatal: runErr.Error()}, &fr)
		return false, runErr
	case runErr != nil:
		// Batch cancelled without a recorded cause: the heartbeat
		// goroutine lost the coordinator. Re-lease; transport retry
		// inside post already consumed MaxOffline if it was down.
		return false, errLeaseLost
	}
	return false, nil
}

// post sends one JSON request, retrying transport failures with capped
// backoff until MaxOffline elapses — a coordinator restart mid-sweep
// looks like a brief network blip from here.
func (w *Worker) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(w.cfg.MaxOffline)
	bo := robust.Backoff{Base: 200 * time.Millisecond, Cap: 2 * time.Second}
	for attempt := 0; ; attempt++ {
		err = w.postOnce(ctx, path, body, resp)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: coordinator unreachable past %v: %w", w.cfg.MaxOffline, err)
		}
		if attempt == 0 {
			w.cfg.Logf("dist: worker %s: %s: %v (retrying)", w.cfg.ID, path, err)
		}
		if serr := bo.Sleep(ctx, attempt); serr != nil {
			return serr
		}
	}
}

func (w *Worker) postOnce(ctx context.Context, path string, body []byte, resp any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, res.StatusCode)
	}
	return json.NewDecoder(res.Body).Decode(resp)
}

// Close releases the worker's shard journal, if any.
func (w *Worker) Close() error {
	if w.opts.Journal != nil {
		return w.opts.Journal.Close()
	}
	return nil
}
