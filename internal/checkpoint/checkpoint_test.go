package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestRoundTripScalarsAndSlices(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("test")
	w.U64(0xDEADBEEFCAFEF00D)
	w.U32(0x1234ABCD)
	w.U8(0x7F)
	w.I64(-42)
	w.Bool(true)
	w.Bool(false)
	w.String("hello, checkpoint")
	u8s := make([]uint8, 70_000) // every slab spans multiple bulk chunks
	for i := range u8s {
		u8s[i] = uint8(i * 131)
	}
	WriteSlab(w, u8s)
	u64s := make([]uint64, 10_000)
	for i := range u64s {
		u64s[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	WriteSlab(w, u64s)
	u32s := make([]uint32, 20_001)
	for i := range u32s {
		u32s[i] = uint32(i) * 2654435761
	}
	WriteSlab(w, u32s)
	type cycle uint64 // a named ~uint64 word, like sim.Cycle
	cycles := []cycle{1, 1 << 40, 1<<64 - 1}
	WriteSlab(w, cycles)
	WriteSlab(w, u64s)
	WriteSlab[uint64](w, nil)
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if err := r.Section("test"); err != nil {
		t.Fatalf("Section: %v", err)
	}
	if got := r.U64(); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.U32(); got != 0x1234ABCD {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U8(); got != 0x7F {
		t.Fatalf("U8 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatalf("Bool round trip failed")
	}
	if got := r.String(); got != "hello, checkpoint" {
		t.Fatalf("String = %q", got)
	}
	gotU8s := make([]uint8, len(u8s))
	ReadSlab(r, gotU8s)
	if !bytes.Equal(gotU8s, u8s) {
		t.Fatalf("uint8 slab mismatch")
	}
	gotU64s := make([]uint64, len(u64s))
	ReadSlab(r, gotU64s)
	if !reflect.DeepEqual(gotU64s, u64s) {
		t.Fatalf("uint64 slab mismatch")
	}
	gotU32s := make([]uint32, len(u32s))
	ReadSlab(r, gotU32s)
	if !reflect.DeepEqual(gotU32s, u32s) {
		t.Fatalf("uint32 slab mismatch")
	}
	gotCycles := make([]cycle, len(cycles))
	ReadSlab(r, gotCycles)
	if !reflect.DeepEqual(gotCycles, cycles) {
		t.Fatalf("named-word slab = %v, want %v", gotCycles, cycles)
	}
	if got := r.U64s(); !reflect.DeepEqual(got, u64s) {
		t.Fatalf("U64s mismatch")
	}
	if got := r.U64s(); len(got) != 0 {
		t.Fatalf("empty U64s = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Reader.Finish: %v", err)
	}
}

func TestSectionMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("alpha")
	w.Finish()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if err := r.Section("beta"); err == nil {
		t.Fatal("section mismatch not detected")
	}
}

func writeTestFile(t *testing.T, dir, key string) string {
	t.Helper()
	path := filepath.Join(dir, key+".ckpt")
	err := Save(path, key, `{"test":true}`, func(w *Writer) error {
		w.Section("payload")
		for i := 0; i < 1000; i++ {
			w.U64(uint64(i))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	return path
}

func readAll(t *testing.T, path, key string) error {
	t.Helper()
	r, err := Open(path, key)
	if err != nil {
		return err
	}
	defer r.Close()
	if err := r.Section("payload"); err != nil {
		return err
	}
	for i := 0; i < 1000; i++ {
		r.U64() // values are only trustworthy once Finish verifies the CRC
	}
	return r.Finish()
}

func TestSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := writeTestFile(t, dir, "cafe0123")
	if err := readAll(t, path, "cafe0123"); err != nil {
		t.Fatalf("read back: %v", err)
	}
	r, err := Open(path, "")
	if err != nil {
		t.Fatalf("Open without key: %v", err)
	}
	if r.Key != "cafe0123" || r.Meta != `{"test":true}` {
		t.Fatalf("header Key=%q Meta=%q", r.Key, r.Meta)
	}
	r.Close()
}

func TestKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	path := writeTestFile(t, dir, "cafe0123")
	err := readAll(t, path, "0000ffff")
	if !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("want ErrKeyMismatch, got %v", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := writeTestFile(t, dir, "cafe0123")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) - 1, len(data) / 2, 20, 4} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := readAll(t, path, "cafe0123"); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestFlippedByte(t *testing.T) {
	dir := t.TempDir()
	path := writeTestFile(t, dir, "cafe0123")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte (past magic+version+key+meta header); the
	// CRC at Finish must catch it.
	pos := len(data) - 100
	data[pos] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := readAll(t, path, "cafe0123"); err == nil {
		t.Fatal("flipped byte not detected")
	}
}

func TestStaleVersion(t *testing.T) {
	dir := t.TempDir()
	path := writeTestFile(t, dir, "cafe0123")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(Magic)] = FormatVersion + 1 // bump the LE version field
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = readAll(t, path, "cafe0123")
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("want ErrVersionMismatch, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := writeTestFile(t, dir, "cafe0123")
	data, _ := os.ReadFile(path)
	data[0] = 'X'
	os.WriteFile(path, data, 0o644)
	if err := readAll(t, path, "cafe0123"); err == nil {
		t.Fatal("bad magic not detected")
	}
}

// TestCorruptSliceLength: a length prefix whose bytes the source does
// not hold fails before anything is allocated — in memory, from a file
// through Open, and (by the element cap) from a source of unknown size.
func TestCorruptSliceLength(t *testing.T) {
	for _, n := range []uint64{1 << 40, 1<<28 - 1} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.U64(n)
		w.Finish()
		path := filepath.Join(t.TempDir(), "corrupt.ckpt")
		if err := Save(path, "k", "", func(w *Writer) error { w.U64(n); return nil }); err != nil {
			t.Fatal(err)
		}
		f, err := Open(path, "k")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sources := map[string]*Reader{
			"memory": NewReader(bytes.NewReader(buf.Bytes())),
			"file":   f,
		}
		if n > maxSliceLen {
			sources["stream"] = NewReader(struct{ *bytes.Reader }{bytes.NewReader(buf.Bytes())})
		}
		for name, r := range sources {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := r.U64s()
			runtime.ReadMemStats(&after)
			if got != nil || r.Err() == nil {
				t.Fatalf("%s: corrupt length %d accepted: %v / %v", name, n, got, r.Err())
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("%s: corrupt length %d allocated %d bytes before failing", name, n, grew)
			}
		}
	}
}

// TestReadSlabLengthMismatch: the in-place read accepts only a stored
// length equal to len(dst), for every element width, and a mismatch is
// sticky.
func TestReadSlabLengthMismatch(t *testing.T) {
	check := func(name string, read func(r *Reader)) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		WriteSlab(w, []uint64{1, 2, 3})
		w.U64(7)
		w.Finish()
		r := NewReader(bytes.NewReader(buf.Bytes()))
		read(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "slab of 3 elements") {
			t.Fatalf("%s: length mismatch not rejected: %v", name, err)
		}
		if r.U64() != 0 || r.Err() == nil {
			t.Fatalf("%s: error not sticky", name)
		}
	}
	check("uint8", func(r *Reader) { ReadSlab(r, make([]uint8, 4)) })
	check("uint32", func(r *Reader) { ReadSlab(r, make([]uint32, 2)) })
	check("uint64", func(r *Reader) { ReadSlab(r, make([]uint64, 0)) })
}
