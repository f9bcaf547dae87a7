package robust

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal is a crash-safe append-only log of completed work items, one
// JSON line per entry: {"key":"<content hash>","record":{...}}. Every
// Append is fsync'd before it returns, so an entry that Append accepted
// survives SIGKILL and power loss. A crash mid-Append leaves at most one
// torn final line, which Open detects and truncates away — the journal
// is always a valid prefix of what was written.
//
// Keys are content hashes (Key) of everything the record depends on, so
// a resumed sweep matches entries only when spec, mode, and code version
// all agree; stale entries from an older spec simply never match.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	entries map[string]json.RawMessage
	dropped int
}

// journalLine is the wire form of one entry.
type journalLine struct {
	Key    string          `json:"key"`
	Record json.RawMessage `json:"record"`
}

// scanJournal loads entries from raw journal bytes as a prefix log:
// entries parse up to the first line that is torn (no trailing newline)
// or fails to unmarshal, and good reports where that valid prefix ends.
func scanJournal(data []byte, entries map[string]json.RawMessage) (good int) {
	for good < len(data) {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			break // torn tail: the final line never got its newline
		}
		line := data[good : good+nl]
		var e journalLine
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" || len(e.Record) == 0 {
			break // corrupt line ends the usable prefix
		}
		entries[e.Key] = e.Record
		good += nl + 1
	}
	return good
}

// LoadJournalEntries reads a journal file without opening it for
// appending: the valid-prefix entries plus how many trailing bytes a
// torn or corrupt tail would discard. A missing file is an empty
// journal, matching OpenJournal.
func LoadJournalEntries(path string) (entries map[string]json.RawMessage, dropped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("journal %s: %w", path, err)
	}
	entries = make(map[string]json.RawMessage)
	good := scanJournal(data, entries)
	return entries, len(data) - good, nil
}

// MergeJournalEntries unions the entries of several journal files —
// the per-shard journals of a distributed sweep. Each file is loaded
// with the same valid-prefix semantics as OpenJournal, so one shard's
// torn tail costs only that shard's final entry, never the others.
// Keys are content hashes of everything a record depends on, so
// overlapping entries (a cell completed by two shards) are identical
// by construction and the union is order-independent; later files win
// ties, which cannot change any byte. dropped totals the torn-tail
// bytes discarded across all files.
func MergeJournalEntries(paths ...string) (entries map[string]json.RawMessage, dropped int, err error) {
	entries = make(map[string]json.RawMessage)
	for _, path := range paths {
		e, d, err := LoadJournalEntries(path)
		if err != nil {
			return nil, dropped, err
		}
		dropped += d
		for k, v := range e {
			entries[k] = v
		}
	}
	return entries, dropped, nil
}

// OpenJournal opens (creating if needed) the journal at path for
// appending. Existing content is scanned as a prefix log: entries are
// loaded up to the first line that is torn (no trailing newline) or
// fails to parse, and the file is truncated back to the end of that
// valid prefix so subsequent appends always start on a clean line
// boundary. DroppedBytes reports how much a repair discarded.
func OpenJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	entries := make(map[string]json.RawMessage)
	good := scanJournal(data, entries)

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal %s: repair: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return &Journal{f: f, path: path, entries: entries, dropped: len(data) - good}, nil
}

// Len returns the number of loaded + appended entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// DroppedBytes reports how many trailing bytes Open's torn-tail repair
// discarded (0 for a clean journal).
func (j *Journal) DroppedBytes() int { return j.dropped }

// Entries returns a copy of the journal's key → record map (the valid
// prefix loaded at Open plus anything appended since).
func (j *Journal) Entries() map[string]json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]json.RawMessage, len(j.entries))
	for k, v := range j.entries {
		out[k] = v
	}
	return out
}

// Append marshals record and appends one fsync'd entry line. It is safe
// for concurrent use — worker goroutines append completed cells in
// completion order; resume never depends on entry order, only on keys.
func (j *Journal) Append(key string, record any) error {
	if key == "" {
		return fmt.Errorf("journal %s: empty key", j.path)
	}
	raw, err := json.Marshal(record)
	if err != nil {
		return fmt.Errorf("journal %s: marshal: %w", j.path, err)
	}
	line, err := json.Marshal(journalLine{Key: key, Record: raw})
	if err != nil {
		return fmt.Errorf("journal %s: marshal: %w", j.path, err)
	}
	line = append(line, '\n')

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal %s: closed", j.path)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal %s: append: %w", j.path, err)
	}
	// The fsync is the crash-safety contract: once Append returns, the
	// entry survives SIGKILL. Per-entry fsync is cheap next to the
	// seconds-to-minutes a sweep cell costs.
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal %s: sync: %w", j.path, err)
	}
	j.entries[key] = raw
	return nil
}

// Clear discards every entry and truncates the file — a fresh sweep
// over a journal path that exists (running without -resume must not
// resurrect a previous sweep's cells).
func (j *Journal) Clear() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal %s: closed", j.path)
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal %s: clear: %w", j.path, err)
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return fmt.Errorf("journal %s: clear: %w", j.path, err)
	}
	j.entries = make(map[string]json.RawMessage)
	j.dropped = 0
	return nil
}

// Close closes the underlying file. Append after Close errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
