//go:build unix

package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// Checkpoint-directory locking: multiple workers of a distributed
// sweep share one -checkpoint-dir, and a paperbench checkpoint-gc
// pruning that directory while a worker is mid-restore would yank an
// 800MB checkpoint out from under a read in progress. A tiny flock(2)-based
// reader/writer lock on a sentinel file serializes them: restores and
// saves hold the lock shared (they can overlap freely), GC takes it
// exclusive and refuses — rather than waits forever — when readers
// hold it. Locks are advisory and release automatically when the
// holding process exits, so a SIGKILLed worker can never wedge GC.

// LockFileName is the sentinel file the directory lock lives on. It is
// not a checkpoint, so *.ckpt globs never see it.
const LockFileName = ".dirlock"

// lockDir opens the sentinel and flocks it with how (LOCK_SH/LOCK_EX,
// optionally |LOCK_NB). The returned unlock closes the file, dropping
// the lock.
func lockDir(dir string, how int) (unlock func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint lock: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, LockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), how); err != nil {
		f.Close()
		return nil, err
	}
	return func() { f.Close() }, nil
}

// LockDirShared takes the directory lock shared — the restore/save
// side. Blocks only while a GC holds the exclusive lock (milliseconds:
// GC is header reads and unlinks).
func LockDirShared(dir string) (unlock func(), err error) {
	unlock, err = lockDir(dir, syscall.LOCK_SH)
	if err != nil {
		return nil, fmt.Errorf("checkpoint lock %s (shared): %w", dir, err)
	}
	return unlock, nil
}

// LockDirExclusive takes the directory lock exclusive — the GC side —
// retrying until wait elapses. It never blocks indefinitely: a
// directory busy with restores makes it return ErrDirBusy, and the
// caller reports "in use, retry later" instead of deadlocking a sweep
// against its own maintenance.
func LockDirExclusive(dir string, wait time.Duration) (unlock func(), err error) {
	deadline := time.Now().Add(wait)
	for {
		unlock, err = lockDir(dir, syscall.LOCK_EX|syscall.LOCK_NB)
		if err == nil {
			return unlock, nil
		}
		if err != syscall.EWOULDBLOCK && err != syscall.EAGAIN {
			return nil, fmt.Errorf("checkpoint lock %s (exclusive): %w", dir, err)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("checkpoint lock %s: %w", dir, ErrDirBusy)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ErrDirBusy reports that the exclusive lock could not be taken within
// the wait: some process holds the directory shared (a restore or save
// in flight).
var ErrDirBusy = fmt.Errorf("directory is in use (a checkpoint restore or save holds the lock)")
