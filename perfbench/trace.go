package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// counts are read at both boundaries of every span, so per-layer ratios
// are measured where the work happens. The sim fields come from the
// system the span works on (zero when there is none yet); the host
// fields from the Go runtime and getrusage.
type counts struct {
	Retired   uint64  `json:"retired"`
	Events    uint64  `json:"events"`
	Table     int     `json:"table_entries"`
	AllocB    uint64  `json:"heap_alloc_bytes"`
	GCCycles  uint64  `json:"gc_cycles"`
	GCCPU     float64 `json:"gc_cpu_s"`
	LiveHeapB uint64  `json:"live_heap_bytes"`
	MinFlt    int64   `json:"minflt"`
	UserCPU   float64 `json:"user_cpu_s"`
	SysCPU    float64 `json:"sys_cpu_s"`
}

// span is one call the benchmark made into a module. Start and End are
// Unix nanoseconds, so spans from the checkpoint-cutting child process
// merge onto the parent's timeline.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	Begin  counts `json:"begin"`
	Finish counts `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// is the untraced mode: do runs the call and records nothing, and the
// counters are never read.
type tracer struct {
	run   string
	spans []span
	open  []int // IDs of the spans enclosing the current call
}

func newTracer(run string) *tracer { return &tracer{run: run} }

// do runs fn inside a span named name, reading probe at both ends.
func (t *tracer) do(name string, probe func() counts, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name,
		Begin: probe(), Start: time.Now().UnixNano()})
	t.open = append(t.open, id)
	defer func() {
		t.open = t.open[:len(t.open)-1]
		s := &t.spans[id-1]
		s.End = time.Now().UnixNano()
		s.Finish = probe()
	}()
	fn()
}

// adopt appends spans recorded by another process (the checkpoint-cutting
// child) beneath the currently open span, renumbering their IDs.
func (t *tracer) adopt(spans []span) {
	if t == nil {
		return
	}
	base := len(t.spans)
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Run = t.run
		t.spans = append(t.spans, s)
	}
}

// lastAt returns the last span recorded whose name is path's last element
// and whose chain of enclosing spans ends with the rest of path; the zero
// span when there is none.
func (t *tracer) lastAt(path ...string) span {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.matches(t.spans[i], path) {
			return t.spans[i]
		}
	}
	return span{}
}

func (t *tracer) matches(s span, path []string) bool {
	for j := len(path) - 1; j >= 0; j-- {
		if s.Name != path[j] {
			return false
		}
		if j > 0 {
			if s.Parent == 0 {
				return false
			}
			s = t.spans[s.Parent-1]
		}
	}
	return true
}

// children returns the spans directly beneath s, in start order.
func (t *tracer) children(s span) []span {
	var out []span
	for _, c := range t.spans {
		if c.Parent == s.ID && s.ID != 0 {
			out = append(out, c)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// nameTime aggregates the spans sharing one name.
type nameTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes computes, per span name, the total duration and the self
// time: each span's duration minus the part of it that its children
// cover. Children may nest or overlap one another; their intervals are
// clipped to the parent and merged before subtracting, so overlap is
// never subtracted twice.
func selfTimes(spans []span) []nameTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*nameTime{}
	var order []string
	for _, s := range spans {
		nt := agg[s.Name]
		if nt == nil {
			nt = &nameTime{Name: s.Name}
			agg[s.Name] = nt
			order = append(order, s.Name)
		}
		nt.Count++
		nt.Total += s.dur()
		nt.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]nameTime, 0, len(order))
	for _, name := range order {
		out = append(out, *agg[name])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			end = v.hi
		}
	}
	return time.Duration(total)
}

// printSelfTimes writes the self-time table, largest self time first.
func printSelfTimes(w io.Writer, nts []nameTime) {
	sorted := append([]nameTime(nil), nts...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Self > sorted[j].Self })
	fmt.Fprintf(w, "  %-38s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, nt := range sorted {
		fmt.Fprintf(w, "  %-38s %6d %12.4f %12.4f\n", nt.Name, nt.Count, nt.Total.Seconds(), nt.Self.Seconds())
	}
}
