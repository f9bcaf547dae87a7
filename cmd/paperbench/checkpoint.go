package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/checkpoint"
)

// Warm-state checkpoint directory maintenance (the checkpoint-ls and
// checkpoint-gc subcommands). Both operate on the header alone — key
// and metadata live before the payload precisely so a listing never has
// to read an 800MB paper-scale checkpoint body.

// ckptEntry is one directory entry with its decoded header (or the
// reason it could not be decoded).
type ckptEntry struct {
	path    string
	size    int64
	modTime time.Time
	key     string
	meta    string
	stale   bool // written by a different format version
	err     error
}

// scanCheckpointDir reads every *.ckpt header in dir, sorted by name so
// output is stable across runs.
func scanCheckpointDir(dir string) ([]ckptEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	entries := make([]ckptEntry, 0, len(paths))
	for _, path := range paths {
		e := ckptEntry{path: path}
		if fi, err := os.Stat(path); err == nil {
			e.size = fi.Size()
			e.modTime = fi.ModTime()
		}
		r, err := checkpoint.Open(path, "") // empty key: header inspection only
		if err != nil {
			e.err = err
			e.stale = errors.Is(err, checkpoint.ErrVersionMismatch)
		} else {
			e.key, e.meta = r.Key, r.Meta
			r.Close()
		}
		entries = append(entries, e)
	}
	return entries, nil
}

func runCheckpointLS(dir string) int {
	entries, err := scanCheckpointDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		return 1
	}
	var total int64
	for _, e := range entries {
		age := time.Since(e.modTime).Round(time.Minute)
		switch {
		case e.err != nil:
			note := "unreadable"
			if e.stale {
				note = "stale format"
			}
			fmt.Printf("%s\t%.1f MB\tage %v\t[%s: %v]\n", filepath.Base(e.path), float64(e.size)/(1<<20), age, note, e.err)
		default:
			fmt.Printf("%s\t%.1f MB\tage %v\t%s\n", filepath.Base(e.path), float64(e.size)/(1<<20), age, e.meta)
		}
		total += e.size
	}
	fmt.Printf("%d checkpoint(s), %.1f MB in %s\n", len(entries), float64(total)/(1<<20), dir)
	return 0
}

// gcLockWait bounds how long GC waits for concurrent restores/saves to
// drain before refusing. Restores of paper-scale checkpoints take a few
// seconds; anything longer means the directory is genuinely busy. (A
// variable so the directed test can shorten the refusal path.)
var gcLockWait = 10 * time.Second

// runCheckpointGC prunes checkpoints older than maxAgeDays, plus any
// whose header is stale (older format version — the current code will
// never restore it) or unreadable. Live checkpoints are left alone.
// The directory lock is taken exclusive for the whole pass: workers of
// a distributed sweep restore under the shared lock, so GC can never
// unlink a checkpoint mid-restore — it refuses (exit 1) when the
// directory stays busy past gcLockWait rather than waiting forever.
func runCheckpointGC(dir string, maxAgeDays int) int {
	unlock, err := checkpoint.LockDirExclusive(dir, gcLockWait)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkpoint: gc: %v — retry when the sweep's restores have drained\n", err)
		return 1
	}
	defer unlock()
	entries, err := scanCheckpointDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		return 1
	}
	cutoff := time.Now().Add(-time.Duration(maxAgeDays) * 24 * time.Hour)
	pruned, kept, failed := 0, 0, 0
	var freed int64
	for _, e := range entries {
		reason := ""
		switch {
		case e.stale:
			reason = "stale format"
		case e.err != nil:
			reason = "unreadable"
		case e.modTime.Before(cutoff):
			reason = fmt.Sprintf("older than %dd", maxAgeDays)
		}
		if reason == "" {
			kept++
			continue
		}
		if err := os.Remove(e.path); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
			failed++
			continue
		}
		fmt.Fprintf(os.Stderr, "pruned %s (%.1f MB, %s)\n", filepath.Base(e.path), float64(e.size)/(1<<20), reason)
		pruned++
		freed += e.size
	}
	fmt.Printf("pruned %d checkpoint(s) (%.1f MB freed), kept %d in %s\n", pruned, float64(freed)/(1<<20), kept, dir)
	if failed > 0 {
		return 1
	}
	return 0
}
