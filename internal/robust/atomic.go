package robust

import (
	"fmt"
	"os"
	"path/filepath"
)

// CommitFile atomically moves a finished temp file into place (fsync +
// rename + directory fsync) — the final step of streaming a large
// output to disk, so a crash at any point leaves either the old complete
// file or the new complete file, never a truncated hybrid. paperbench
// commits its grid outputs and recorded traces through this. The caller
// must have finished writing tmp and closed it.
func CommitFile(tmp, path string) error {
	f, err := os.Open(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss.
// Best-effort: some filesystems refuse directory fsync, and the rename
// itself already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
