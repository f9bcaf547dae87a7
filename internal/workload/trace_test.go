package workload

import (
	"bytes"
	"testing"
)

// recordOps captures n ops from a fresh stream.
func recordOps(t *testing.T, n int) []Op {
	t.Helper()
	st := NewStream(WebSearch(), 0, 4, 16, 5)
	ops := make([]Op, n)
	st.NextBatch(ops)
	return ops
}

// TestTraceRoundTrip: write → read reproduces name, MLP and every op.
func TestTraceRoundTrip(t *testing.T) {
	ops := recordOps(t, 5000)
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, "WebSearch", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(ops[:1234]); err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(ops[1234:]); err != nil {
		t.Fatal(err)
	}
	if err := tw.Finish(); err != nil {
		t.Fatal(err)
	}
	if tw.Count() != 5000 {
		t.Fatalf("writer counted %d ops", tw.Count())
	}
	name, mlp, got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if name != "WebSearch" || mlp != 4 || len(got) != 5000 {
		t.Fatalf("read back (%q, %d, %d ops)", name, mlp, len(got))
	}
	for i := range got {
		if got[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}
}

// TestTraceRejects covers every malformed-input path: each must error,
// never panic or return garbage.
func TestTraceRejects(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		tw, _ := NewTraceWriter(&buf, "w", 2)
		tw.Write(recordOps(t, 10))
		tw.Finish()
		return buf.Bytes()
	}()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", valid[:8]},
		{"bad magic", append([]byte("XXXX"), valid[4:]...)},
		{"future version", func() []byte {
			b := bytes.Clone(valid)
			b[4] = 99
			return b
		}()},
		{"zero mlp", func() []byte {
			b := bytes.Clone(valid)
			b[8], b[9], b[10], b[11] = 0, 0, 0, 0
			return b
		}()},
		{"zero name length", func() []byte {
			b := bytes.Clone(valid)
			b[12], b[13] = 0, 0
			return b
		}()},
		{"torn record", valid[:len(valid)-7]},
		{"no ops", valid[:15]}, // header + name only
		{"jump flag without line", func() []byte {
			b := bytes.Clone(valid)
			// Overwrite the first op's IWord with the bare jump bit.
			copy(b[15:23], []byte{1, 0, 0, 0, 0, 0, 0, 0})
			return b
		}()},
	}
	for _, tc := range cases {
		if _, _, _, err := ReadTrace(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: ReadTrace accepted it", tc.name)
		}
	}

	if _, err := NewTraceWriter(&bytes.Buffer{}, "", 2); err == nil {
		t.Error("empty trace name accepted")
	}
	if _, err := NewTraceWriter(&bytes.Buffer{}, "w", 0); err == nil {
		t.Error("zero MLP accepted")
	}
}

// TestTraceSourceReplay: the source loops the recorded ops exactly, at
// any batch size, with the group offset applied.
func TestTraceSourceReplay(t *testing.T) {
	ops := recordOps(t, 100)
	off := GroupOffset(2)
	ref := NewTraceSource("w", 2, ops, off, 0)
	want := make([]Op, 350) // wraps 3.5 times
	for i := range want {
		nextOp(ref, &want[i])
	}
	for i := range want {
		raw := ops[i%100]
		if raw.IWord != 0 {
			raw.IWord += off
		}
		if raw.DWord != 0 {
			raw.DWord += off
		}
		if want[i] != raw {
			t.Fatalf("op %d: %+v, recorded %+v", i, want[i], raw)
		}
	}
	for _, batch := range []int{1, 3, 64, 333} {
		src := NewTraceSource("w", 2, ops, off, 0)
		got := make([]Op, 0, len(want))
		buf := make([]Op, batch)
		for len(got) < len(want) {
			src.NextBatch(buf)
			got = append(got, buf...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d: op %d diverged", batch, i)
			}
		}
	}
}
