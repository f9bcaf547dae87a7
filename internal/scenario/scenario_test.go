package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// nextOp takes one op from src through a one-op NextBatch.
func nextOp(src workload.Source, op *workload.Op) {
	var buf [1]workload.Op
	src.NextBatch(buf[:])
	*op = buf[0]
}

// testResolver looks up the compiled-in presets — the same catalog the
// experiments package passes in production (re-built here to avoid an
// import cycle with experiments' scenario support).
func testResolver(name string) (workload.Spec, error) {
	for _, s := range append(workload.ScaleOutSuite(), workload.EnterpriseSuite()...) {
		if s.Name == name {
			return s, nil
		}
	}
	for _, n := range workload.Spec2006Names() {
		if n == name {
			return workload.Spec2006(n), nil
		}
	}
	return workload.Spec{}, fmt.Errorf("unknown workload %q", name)
}

// noTraces is a loader for fixtures that reference no traces.
func noTraces(ref string) ([]byte, error) {
	return nil, fmt.Errorf("fixture referenced trace %q", ref)
}

// mustParse compiles an inline spec or fails the test.
func mustParse(t *testing.T, src string) *Scenario {
	t.Helper()
	s, err := Parse([]byte(src), testResolver, noTraces)
	if err != nil {
		t.Fatalf("Parse: %v\nspec:\n%s", err, src)
	}
	return s
}

// TestGoldenFixtures walks testdata: every file under valid/ must
// parse AND compile onto a 16-core system; every file under bad/ must
// be rejected with an error containing the substring in its first-line
// `# want:` comment. The bad/ set covers every rejection path in the
// decoder and the scenario layer — the parser-hardening contract.
func TestGoldenFixtures(t *testing.T) {
	valid, err := filepath.Glob("testdata/valid/*")
	if err != nil || len(valid) == 0 {
		t.Fatalf("no valid fixtures: %v", err)
	}
	for _, path := range valid {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Parse(data, testResolver, noTraces)
			if err != nil {
				t.Fatalf("valid fixture rejected: %v", err)
			}
			if _, err := s.Sources(16, 16, 5); err != nil {
				t.Fatalf("fixture does not compile on 16 cores: %v", err)
			}
			if s.Digest() == "" || s.Digest() != s.computeDigest() {
				t.Fatal("digest unstable")
			}
		})
	}

	bad, err := filepath.Glob("testdata/bad/*")
	if err != nil || len(bad) == 0 {
		t.Fatalf("no bad fixtures: %v", err)
	}
	for _, path := range bad {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			first, rest, _ := bytes.Cut(data, []byte("\n"))
			want, ok := strings.CutPrefix(string(first), "# want: ")
			if !ok {
				t.Fatalf("fixture lacks a `# want: <substring>` first line")
			}
			// JSON can't carry the comment line; YAML ignores it either
			// way, so strip it before parsing.
			_, perr := Parse(rest, testResolver, noTraces)
			if perr == nil {
				t.Fatalf("bad fixture accepted (want error containing %q)", want)
			}
			if !strings.Contains(perr.Error(), want) {
				t.Fatalf("error %q does not contain %q", perr, want)
			}
		})
	}
}

// TestSourcesCoverage pins the core-binding errors: selections must
// cover [0,ncores) exactly once, in declaration order.
func TestSourcesCoverage(t *testing.T) {
	cases := []struct {
		name, cores string
		ncores      int
		want        string
	}{
		{"uncovered tail", "0-9", 16, "core 10 is bound to no client"},
		{"outside system", "0-19", 16, "core 16 outside the system's [0,16)"},
		{"count too large", "20", 16, "wants 20 cores but only 16 are unassigned"},
		{"list outside", "[0, 99]", 16, "core 99 outside"},
	}
	for _, tc := range cases {
		s := mustParse(t, fmt.Sprintf("name: x\nclients:\n  - id: a\n    cores: %s\n    workload: WebSearch\n", tc.cores))
		_, err := s.Sources(tc.ncores, 16, 5)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not contain %q", tc.name, err, tc.want)
		}
	}

	// Overlap across clients, and rest-with-nothing-left.
	s := mustParse(t, "name: x\nclients:\n  - id: a\n    cores: 0-8\n    workload: WebSearch\n  - id: b\n    cores: [8, 9]\n    workload: Zeus\n")
	if _, err := s.Sources(16, 16, 5); err == nil || !strings.Contains(err.Error(), "core 8 assigned twice") {
		t.Errorf("overlap: %v", err)
	}
	s = mustParse(t, "name: x\nclients:\n  - id: a\n    cores: 0-15\n    workload: WebSearch\n  - id: b\n    cores: rest\n    workload: Zeus\n")
	if _, err := s.Sources(16, 16, 5); err == nil || !strings.Contains(err.Error(), "rest selects no cores") {
		t.Errorf("empty rest: %v", err)
	}

	// The same scenario compiles fine at a core count the selections
	// cover: declaration order resolves counts then rest.
	s = mustParse(t, "name: x\nclients:\n  - id: a\n    cores: 4\n    workload: WebSearch\n  - id: b\n    cores: rest\n    workload: Zeus\n")
	srcs, err := s.Sources(16, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 16 {
		t.Fatalf("%d sources for 16 cores", len(srcs))
	}
	for c, src := range srcs {
		wantName := "WebSearch"
		if c >= 4 {
			wantName = "Zeus"
		}
		if src.Spec().Name != wantName {
			t.Fatalf("core %d runs %q, want %q", c, src.Spec().Name, wantName)
		}
	}
}

// TestSharingGroupRanks: within one sharing group the per-core streams
// are indexed by rank in the group's core union, with the union's size
// as ncores — byte-compared against directly-constructed Phased
// sources. Cores of different clients in the group interleave one
// address space; a client in its own group is isolated.
func TestSharingGroupRanks(t *testing.T) {
	const src = `name: ranks
clients:
  - id: a
    cores: [0, 2]
    group: 0
    workload: WebSearch
  - id: b
    cores: [1, 3]
    group: 0
    workload: MapReduce
  - id: c
    cores: rest
    group: 5
    workload: Zeus
`
	s := mustParse(t, src)
	srcs, err := s.Sources(6, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	inf := workload.Arrival{Process: workload.ArrivalFixed, MeanOps: float64(uint64(1) << 60)}
	phase := func(sp workload.Spec) []workload.Phase {
		return []workload.Phase{{Spec: sp, Arrival: inf}}
	}
	// Group 0's union is cores {0,1,2,3}: a owns ranks 0 and 2, b owns
	// ranks 1 and 3. Group 5's union is {4,5}.
	expect := []*workload.Phased{
		workload.NewPhased(phase(workload.WebSearch()), 0, 4, 16, 5, 0, workload.GroupOffset(0)),
		workload.NewPhased(phase(workload.MapReduce()), 1, 4, 16, 5, 1, workload.GroupOffset(0)),
		workload.NewPhased(phase(workload.WebSearch()), 2, 4, 16, 5, 0, workload.GroupOffset(0)),
		workload.NewPhased(phase(workload.MapReduce()), 3, 4, 16, 5, 1, workload.GroupOffset(0)),
		workload.NewPhased(phase(workload.Zeus()), 0, 2, 16, 5, 2, workload.GroupOffset(5)),
		workload.NewPhased(phase(workload.Zeus()), 1, 2, 16, 5, 2, workload.GroupOffset(5)),
	}
	var got, want workload.Op
	for c := range srcs {
		for i := 0; i < 3000; i++ {
			nextOp(srcs[c], &got)
			nextOp(expect[c], &want)
			if got != want {
				t.Fatalf("core %d op %d: %+v, direct construction %+v", c, i, got, want)
			}
		}
	}
}

// testTrace records n ops of WebSearch into trace-file bytes.
func testTrace(t *testing.T, n int) []byte {
	t.Helper()
	st := workload.NewStream(workload.WebSearch(), 0, 4, 16, 5)
	ops := make([]workload.Op, n)
	st.NextBatch(ops)
	var buf bytes.Buffer
	tw, err := workload.NewTraceWriter(&buf, "WebSearch", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(ops); err != nil {
		t.Fatal(err)
	}
	if err := tw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceClientStagger: a multi-core trace client staggers each
// core's replay cursor evenly around the recording.
func TestTraceClientStagger(t *testing.T) {
	raw := testTrace(t, 1000)
	loader := func(ref string) ([]byte, error) {
		if ref != "t.rpt" {
			return nil, fmt.Errorf("unexpected ref %q", ref)
		}
		return raw, nil
	}
	src := "name: replay\nclients:\n  - id: t\n    cores: rest\n    group: 2\n    trace: t.rpt\n"
	s, err := Parse([]byte(src), testResolver, loader)
	if err != nil {
		t.Fatal(err)
	}
	cl := s.Clients[0]
	if cl.Trace == nil || cl.Trace.Name != "WebSearch" || cl.Trace.MLP != 2 || len(cl.Trace.Ops) != 1000 {
		t.Fatalf("trace binding: %+v", cl.Trace)
	}
	srcs, err := s.Sources(4, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	off := workload.GroupOffset(2)
	for c, src := range srcs {
		var got workload.Op
		nextOp(src, &got)
		want := cl.Trace.Ops[1000*c/4]
		if want.IWord != 0 {
			want.IWord += off
		}
		if want.DWord != 0 {
			want.DWord += off
		}
		if got != want {
			t.Fatalf("core %d first op %+v, want recorded op %d %+v", c, got, 1000*c/4, want)
		}
	}
}

// TestDigest: equal bytes hash equal; any semantic change — group,
// tuning knob, trace content — moves the digest.
func TestDigest(t *testing.T) {
	base := "name: d\nclients:\n  - id: a\n    cores: rest\n    group: 1\n    workload: WebSearch\n"
	d0 := mustParse(t, base).Digest()
	if d0 != mustParse(t, base).Digest() {
		t.Fatal("same bytes, different digest")
	}
	variants := []string{
		strings.Replace(base, "group: 1", "group: 2", 1),
		strings.Replace(base, "workload: WebSearch", "workload: Zeus", 1),
		strings.Replace(base, "workload: WebSearch", "workload: WebSearch\n    mem_ratio: 0.42", 1),
		strings.Replace(base, "name: d", "name: e", 1),
	}
	seen := map[string]bool{d0: true}
	for _, v := range variants {
		d := mustParse(t, v).Digest()
		if seen[d] {
			t.Fatalf("variant collided:\n%s", v)
		}
		seen[d] = true
	}

	// Trace digests follow the trace bytes.
	rawA, rawB := testTrace(t, 100), testTrace(t, 101)
	tsrc := "name: d\nclients:\n  - id: a\n    cores: rest\n    trace: t.rpt\n"
	dig := func(raw []byte) string {
		s, err := Parse([]byte(tsrc), testResolver, func(string) ([]byte, error) { return raw, nil })
		if err != nil {
			t.Fatal(err)
		}
		return s.Digest()
	}
	if dig(rawA) == dig(rawB) {
		t.Fatal("different trace bytes, same digest")
	}
	if dig(rawA) != dig(rawA) {
		t.Fatal("same trace bytes, different digest")
	}
}

// TestAutoGroups: clients without group: each get a fresh group from
// the smallest ids not explicitly claimed — no accidental sharing.
func TestAutoGroups(t *testing.T) {
	s := mustParse(t, `name: g
clients:
  - id: a
    cores: 2
    workload: WebSearch
  - id: b
    cores: 2
    group: 0
    workload: Zeus
  - id: c
    cores: rest
    workload: TPCC
`)
	got := []int{s.Clients[0].Group, s.Clients[1].Group, s.Clients[2].Group}
	if got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("groups %v, want [1 0 2]", got)
	}

	// All 16 groups explicitly taken: a defaulted client must error.
	var b strings.Builder
	b.WriteString("name: g\nclients:\n")
	for g := 0; g < workload.MaxGroups; g++ {
		fmt.Fprintf(&b, "  - id: c%d\n    cores: 1\n    group: %d\n    workload: WebSearch\n", g, g)
	}
	b.WriteString("  - id: extra\n    cores: rest\n    workload: Zeus\n")
	if _, err := Parse([]byte(b.String()), testResolver, noTraces); err == nil ||
		!strings.Contains(err.Error(), "all 16 are taken") {
		t.Fatalf("auto-group exhaustion: %v", err)
	}
}

// TestLoadRelativeTrace: Load resolves trace refs relative to the spec
// file's directory and wraps errors with the spec path.
func TestLoadRelativeTrace(t *testing.T) {
	dir := t.TempDir()
	raw := testTrace(t, 50)
	if err := os.WriteFile(filepath.Join(dir, "cap.rpt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "s.yaml")
	if err := os.WriteFile(spec, []byte("name: s\nclients:\n  - id: a\n    cores: rest\n    trace: cap.rpt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(spec, testResolver)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clients[0].Trace.Ops) != 50 {
		t.Fatalf("loaded %d ops", len(s.Clients[0].Trace.Ops))
	}

	if _, err := Load(filepath.Join(dir, "missing.yaml"), testResolver); err == nil {
		t.Fatal("missing spec file accepted")
	}
	bad := filepath.Join(dir, "bad.yaml")
	os.WriteFile(bad, []byte("name: s\nclients: []\n"), 0o644)
	if _, err := Load(bad, testResolver); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("Load error %v does not name the file", err)
	}
}
