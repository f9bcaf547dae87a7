package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workload"
)

// The recorded file must be a valid RPT1 trace that round-trips through
// the workload reader with the preset's name, MLP and the exact op
// count — and be byte-stable across recordings (the fixed stream
// parameters are the point of the tool).
func TestRecordTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "web.rpt")
	c := cliConfig{out: path, workload: "WebSearch", ops: 70000}
	if code := runRecordTrace(&c); code != 0 {
		t.Fatalf("runRecordTrace exited %d", code)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	name, mlp, ops, err := workload.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if name != "WebSearch" || mlp != workload.WebSearch().MLP || len(ops) != 70000 {
		t.Fatalf("trace = %q mlp=%d ops=%d", name, mlp, len(ops))
	}

	c.out = filepath.Join(dir, "web2.rpt")
	if code := runRecordTrace(&c); code != 0 {
		t.Fatalf("second runRecordTrace exited %d", code)
	}
	raw2, err := os.ReadFile(c.out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("two recordings of the same flags differ")
	}

	if code := runRecordTrace(&cliConfig{out: path, workload: "NoSuch", ops: 1}); code != 2 {
		t.Fatalf("unknown workload exited %d, want 2", code)
	}
}

// A recording streams to disk: memory stays bounded by the generation
// batch and the writer buffers, not by the trace size.
func TestRecordTraceStreams(t *testing.T) {
	c := cliConfig{out: filepath.Join(t.TempDir(), "big.rpt"), workload: "WebSearch", ops: 1 << 20}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if code := runRecordTrace(&c); code != 0 {
		t.Fatalf("runRecordTrace exited %d", code)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(c.out)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 16<<20 {
		t.Fatalf("trace is %d bytes, want at least 16 MB", fi.Size())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Fatalf("recording a %d-byte trace allocated %d bytes, want under 8 MB", fi.Size(), alloc)
	}
}

// writeFileAtomic replaces the target in one step with a 0644 file and
// leaves no temp litter; a failed write keeps the old file intact.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	for _, content := range []string{"v1\n", "v2\n"} {
		if err := writeFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	failed := errors.New("generator failed")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return failed
	}); !errors.Is(err, failed) {
		t.Fatalf("failed write returned %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2\n" {
		t.Fatalf("content %q err %v", data, err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v err %v, want 0644", fi.Mode().Perm(), err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want just the target", len(ents))
	}
}

func TestRunMaskWallMSFilter(t *testing.T) {
	in := `{"system":"SILO","wall_ms":12.5,"ipc":1.25}` + "\n" +
		`{"warm_wall_ms":9.1,"wall_ms":3}` + "\n" +
		`no json here` // deliberately unterminated last line
	var out bytes.Buffer
	if code := runMaskWallMS(strings.NewReader(in), &out); code != 0 {
		t.Fatalf("runMaskWallMS exited %d", code)
	}
	want := `{"system":"SILO","wall_ms":0,"ipc":1.25}` + "\n" +
		`{"warm_wall_ms":9.1,"wall_ms":0}` + "\n" +
		`no json here`
	if out.String() != want {
		t.Fatalf("filtered output:\n%s\nwant:\n%s", out.String(), want)
	}
}
