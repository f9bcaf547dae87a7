package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// FuzzParse drives the whole decode + compile path with arbitrary
// bytes. The contract under fuzzing: Parse never panics, and whatever
// it accepts must compile (Sources) and generate without panicking
// either. Seeds come from every checked-in fixture, valid and bad, so
// the fuzzer starts inside the grammar.
func FuzzParse(f *testing.F) {
	for _, dir := range []string{"testdata/valid", "testdata/bad"} {
		paths, err := filepath.Glob(dir + "/*")
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"name":"j","clients":[{"id":"a","cores":"rest","workload":"WebSearch"}]}`))
	f.Add([]byte("name: x\nclients:\n  - id: a\n    cores: [0, 1]\n    arrival: {process: gamma, mean_ops: 10, cv: 2}\n    workload: mcf\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data, testResolver, noTraces)
		if err != nil {
			return
		}
		if s.Digest() == "" {
			t.Fatal("accepted scenario with empty digest")
		}
		// Compilation may legitimately fail (core selections are checked
		// against a concrete system), but must never panic.
		if srcs, err := s.Sources(8, 16, 3); err == nil {
			var op workload.Op
			for _, src := range srcs {
				nextOp(src, &op)
			}
		}
	})
}
