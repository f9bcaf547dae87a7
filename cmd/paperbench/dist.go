package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/dist"
	"repro/internal/experiments"
)

// Distributed sweep runner CLI (DESIGN.md §13): serve runs the
// coordinator over the same sweep flags grid takes; worker joins a
// coordinator and contributes cells. The coordinator's output is
// byte-identical to a single-process grid run modulo wall_ms.

// runServe is coordinator mode: partition the grid into lease batches,
// serve them to workers, reassemble reports in enumeration order, and
// write the sweep output exactly like runGrid would.
func runServe(c *cliConfig, mode experiments.Mode) int {
	if c.resumeShards != "" && !c.resume {
		fmt.Fprintln(os.Stderr, "dist: -resume-shards needs -resume (shard journals only matter when resuming)")
		return 2
	}
	g, opts, code := gridSetup(c, mode, "dist")
	if code != 0 {
		return code
	}
	if opts.Journal != nil {
		defer opts.Journal.Close()
	}

	cfg := dist.Config{
		Grid:         c.spec,
		Windows:      c.windows,
		Confidence:   c.confidence,
		Mode:         mode,
		OnError:      opts.OnError,
		Retries:      opts.Retries,
		Backoff:      opts.Backoff,
		CellDeadline: opts.CellDeadline,
		Journal:      opts.Journal,
		Resume:       opts.Resume,
		LeaseTTL:     c.leaseTTL,
		LeaseCells:   c.leaseCells,
		SoloAfter:    c.soloAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "["+format+"]\n", args...)
		},
	}
	if c.resumeShards != "" {
		cfg.ResumeShards = strings.Split(c.resumeShards, ",")
	}
	co, err := dist.NewCoordinator(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "[dist: coordinating %d cells on %s]\n", g.Cells(), ln.Addr())
	return writeSweep(c, "dist", g.Cells(), func(ctx context.Context, emit func(experiments.GridCellResult) bool) error {
		return co.Run(ctx, ln, emit)
	}, func() string {
		st := co.StatsSnapshot()
		return fmt.Sprintf(" via %d worker(s), %d lease(s), %d reassigned, %d duplicate(s), %d solo",
			st.WorkersSeen, st.LeasesGranted, st.CellsReassigned, st.DuplicateReports, st.SoloCells)
	})
}

// runWorker is worker mode: join the coordinator at the URL, lease
// cells, stream records back until the sweep finishes.
func runWorker(c *cliConfig, mode experiments.Mode) int {
	w := dist.NewWorker(dist.WorkerConfig{
		URL:           strings.TrimRight(c.url, "/"),
		ID:            c.id,
		Parallelism:   mode.Parallelism,
		CheckpointDir: mode.CheckpointDir,
		JournalPath:   c.journal,
		MaxOffline:    c.maxOffline,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "["+format+"]\n", args...)
		},
	})
	defer w.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := w.Run(ctx)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		hint := ""
		if c.journal != "" {
			hint = fmt.Sprintf(" — completed cells are journaled in %s; restart the worker to continue, or feed the file to the coordinator's -resume-shards", c.journal)
		}
		fmt.Fprintf(os.Stderr, "dist: worker %s interrupted; the coordinator reassigns its lease%s\n", w.ID(), hint)
		return 130
	default:
		fmt.Fprintf(os.Stderr, "dist: %v\n", err)
		return 1
	}
}
