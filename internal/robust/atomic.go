package robust

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data via a same-directory temp
// file + fsync + rename, so a crash at any point leaves either the old
// complete file or the new complete file — never a truncated hybrid.
// paperbench -record-trace writes its trace file through this.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		tmp = nil
		return err
	}
	tmp = nil
	syncDir(dir)
	return nil
}

// CommitFile atomically moves a finished temp file into place (fsync +
// rename + directory fsync) — the final step of streaming a large
// output to disk. The caller must have finished writing tmp and closed
// it.
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
