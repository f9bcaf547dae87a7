package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func selfOf(t *testing.T, nts []nameTime, name string) nameTime {
	t.Helper()
	for _, nt := range nts {
		if nt.Name == name {
			return nt
		}
	}
	t.Fatalf("no span named %s in %v", name, nts)
	return nameTime{}
}

// Self time subtracts the union of the children clipped to the parent:
// overlapping children are not subtracted twice, a child running past
// its parent's end counts only inside it, and a grandchild is charged
// to its own parent only.
func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		sp(1, 0, "root", 0, 100),
		sp(2, 1, "a", 10, 40),
		sp(3, 1, "b", 30, 60), // overlaps a over [30,40]
		sp(4, 1, "c", 90, 120),
		sp(5, 2, "leaf", 15, 20),
		sp(6, 0, "a", 200, 210), // a second "a", a root with no children
	}
	nts := selfTimes(spans)
	for _, tc := range []struct {
		name        string
		count       int
		total, self time.Duration
	}{
		{"root", 1, 100, 100 - 50 - 10}, // children cover [10,60] and [90,100]
		{"a", 2, 30 + 10, 25 + 10},
		{"b", 1, 30, 30},
		{"c", 1, 30, 30},
		{"leaf", 1, 5, 5},
	} {
		got := selfOf(t, nts, tc.name)
		if got.Count != tc.count || got.Total != tc.total || got.Self != tc.self {
			t.Errorf("%s: count %d total %v self %v, want %d %v %v",
				tc.name, got.Count, got.Total, got.Self, tc.count, tc.total, tc.self)
		}
	}
}

func TestSelfTimeChildrenCoveringParent(t *testing.T) {
	nts := selfTimes([]span{
		sp(1, 0, "p", 0, 10),
		sp(2, 1, "x", 0, 6),
		sp(3, 1, "y", 2, 4), // inside x
		sp(4, 1, "z", 5, 10),
	})
	if got := selfOf(t, nts, "p"); got.Self != 0 {
		t.Errorf("self of a fully covered parent = %v, want 0", got.Self)
	}
}

func TestTracerNestingAdoptAndLookup(t *testing.T) {
	var zero counts
	probe := func() counts { return zero }
	tr := newTracer("run-1")
	tr.do("op", probe, func() {
		tr.do("setup", probe, func() {
			tr.do("core.NewSystem", probe, func() {})
		})
		tr.do("timed", probe, func() {
			for i := 0; i < 3; i++ {
				tr.do("System.Run", probe, func() {})
			}
		})
	})
	tr.do("prepare", probe, func() {
		// Spans from another process: IDs from 1, roots with parent 0.
		tr.adopt([]span{sp(1, 0, "setup", 1, 5), sp(2, 1, "core.NewSystem", 2, 3)})
	})

	if got := tr.lastAt("op", "setup", "core.NewSystem"); got.ID != 3 || got.Parent != 2 {
		t.Errorf("op/setup/core.NewSystem = %+v", got)
	}
	adopted := tr.lastAt("prepare", "setup", "core.NewSystem")
	if adopted.ID != 10 || adopted.Parent != 9 || adopted.Run != "run-1" {
		t.Errorf("adopted core.NewSystem = %+v, want ID 10 under 9 in run-1", adopted)
	}
	if got := tr.lastAt("prepare", "setup"); got.Parent != tr.lastAt("prepare").ID {
		t.Errorf("adopted root not beneath prepare: %+v", got)
	}
	if got := tr.lastAt("core.NewSystem"); got.ID != adopted.ID {
		t.Errorf("unanchored lookup returned %+v, want the last recorded", got)
	}
	if got := tr.lastAt("timed", "core.NewSystem"); got.ID != 0 {
		t.Errorf("mismatched path found %+v", got)
	}
	if got := len(tr.children(tr.lastAt("op", "timed"))); got != 3 {
		t.Errorf("timed has %d children, want 3", got)
	}
	for _, s := range tr.spans[:8] {
		if s.End < s.Start || s.Run != "run-1" {
			t.Errorf("span %+v not closed in run-1", s)
		}
	}

	path, err := tr.write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != len(tr.spans) || filepath.Base(path) != "run-1.jsonl" {
		t.Fatalf("wrote %d lines to %s for %d spans", len(lines), path, len(tr.spans))
	}
	var first span
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Name != "op" {
		t.Errorf("first line %q: %v", lines[0], err)
	}
}

// A nil tracer is the untraced mode: it runs the call and never reads the
// counters.
func TestNilTracerOnlyRuns(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", func() counts { t.Fatal("probe read while untraced"); return counts{} }, func() { ran = true })
	tr.adopt([]span{sp(1, 0, "y", 0, 1)})
	if !ran {
		t.Error("call not run")
	}
}
