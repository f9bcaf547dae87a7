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

// testFields is one value of every field kind a walk can carry.
type testFields struct {
	u64    uint64
	u32    uint32
	u8     uint8
	i64    int64
	n      int
	yes    bool
	no     bool
	s      string
	u8s    []uint8
	u32s   []uint32
	u64s   []uint64
	cycles []cycle
	data   []uint64
	empty  []uint64
}

type cycle uint64 // a named ~uint64 word, like sim.Cycle

func (f *testFields) walk(c *Codec) {
	c.Section("test")
	Uint(c, &f.u64)
	Uint(c, &f.u32)
	Uint(c, &f.u8)
	Int(c, &f.i64)
	Int(c, &f.n)
	Bool(c, &f.yes)
	Bool(c, &f.no)
	String(c, &f.s)
	Slab(c, f.u8s)
	Slab(c, f.u32s)
	Slab(c, f.u64s)
	Slab(c, f.cycles)
	DataSlab(c, &f.data)
	DataSlab(c, &f.empty)
}

// encode runs walk through an encoder and returns the payload with its
// trailing CRC.
func encode(t *testing.T, walk func(*Codec)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	walk(NewEncoder(w))
	if err := w.Finish(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestRoundTripScalarsAndSlices: one walk encodes every field kind and
// decodes it back into a receiver built with the same slab geometry,
// and the scalars sit at their documented widths.
func TestRoundTripScalarsAndSlices(t *testing.T) {
	want := testFields{
		u64: 0xDEADBEEFCAFEF00D, u32: 0x1234ABCD, u8: 0x7F, i64: -42, n: 1 << 40,
		yes: true, s: "hello, checkpoint",
		u8s:    make([]uint8, 70_000), // every slab spans multiple bulk chunks
		u32s:   make([]uint32, 20_001),
		u64s:   make([]uint64, 10_000),
		cycles: []cycle{1, 1 << 40, 1<<64 - 1},
	}
	for i := range want.u8s {
		want.u8s[i] = uint8(i * 131)
	}
	for i := range want.u32s {
		want.u32s[i] = uint32(i) * 2654435761
	}
	for i := range want.u64s {
		want.u64s[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	want.data = append([]uint64(nil), want.u64s...)
	payload := encode(t, want.walk)

	// Section "test" (8-byte length + 4 bytes), then the scalars:
	// unsigned words at their own width, integers as 8 bytes, bools as
	// one byte, strings length-prefixed.
	scalars := []byte{
		0x0D, 0xF0, 0xFE, 0xCA, 0xEF, 0xBE, 0xAD, 0xDE,
		0xCD, 0xAB, 0x34, 0x12,
		0x7F,
		0xD6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0, 0, 0, 0, 0, 1, 0, 0,
		1, 0,
		17, 0, 0, 0, 0, 0, 0, 0,
	}
	if got := payload[12 : 12+len(scalars)]; !bytes.Equal(got, scalars) {
		t.Fatalf("scalar bytes\n got %x\nwant %x", got, scalars)
	}

	got := testFields{
		u8s:    make([]uint8, len(want.u8s)),
		u32s:   make([]uint32, len(want.u32s)),
		u64s:   make([]uint64, len(want.u64s)),
		cycles: make([]cycle, len(want.cycles)),
		empty:  []uint64{5}, // an empty recorded slab decodes as nil
	}
	r := NewReader(bytes.NewReader(payload))
	got.walk(NewDecoder(r))
	if err := r.Finish(); err != nil {
		t.Fatalf("Reader.Finish: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestSectionMismatch(t *testing.T) {
	payload := encode(t, func(c *Codec) { c.Section("alpha") })
	c := NewDecoder(NewReader(bytes.NewReader(payload)))
	c.Section("beta")
	if c.Err() == nil {
		t.Fatal("section mismatch not detected")
	}
}

// TestShapeMismatch: a decoder compares each shape field with the
// receiver's and never overwrites it; Check fails either direction.
func TestShapeMismatch(t *testing.T) {
	payload := encode(t, func(c *Codec) {
		Shape(c, "sets", 8, Int)
		Shape(c, "name", "trace", String)
	})
	decode := func(sets int, name string) error {
		c := NewDecoder(NewReader(bytes.NewReader(payload)))
		Shape(c, "sets", sets, Int)
		Shape(c, "name", name, String)
		return c.Err()
	}
	if err := decode(8, "trace"); err != nil {
		t.Fatalf("matching shape rejected: %v", err)
	}
	if err := decode(16, "trace"); err == nil || !strings.Contains(err.Error(), "sets 8 recorded, receiver has 16") {
		t.Fatalf("geometry mismatch: %v", err)
	}
	if err := decode(8, "other"); err == nil {
		t.Fatal("name mismatch accepted")
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	c := NewEncoder(w)
	c.Check(false, "core %d is mid-run", 3)
	v := uint64(1)
	Uint(c, &v)
	if w.Err() == nil || w.Err().Error() != "core 3 is mid-run" || buf.Len() != 0 {
		t.Fatalf("encoder Check: err %v, %d bytes written", w.Err(), buf.Len())
	}
}

func writeTestFile(t *testing.T, dir, key string) string {
	t.Helper()
	path := filepath.Join(dir, key+".ckpt")
	err := Save(path, key, `{"test":true}`, func(w *Writer) error {
		c := NewEncoder(w)
		c.Section("payload")
		for i := uint64(0); i < 1000; i++ {
			Uint(c, &i)
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
	c := NewDecoder(r)
	c.Section("payload")
	for i := 0; i < 1000; i++ {
		var v uint64
		Uint(c, &v) // values are only trustworthy once Finish verifies the CRC
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
// through Open, and (by the element cap) from a source of unknown size —
// whether a data-length slab or a walked slice reads it.
func TestCorruptSliceLength(t *testing.T) {
	for _, n := range []uint64{1 << 40, 1<<28 - 1} {
		writeLen := func(w *Writer) error { Uint(NewEncoder(w), &n); return nil }
		var buf bytes.Buffer
		w := NewWriter(&buf)
		writeLen(w)
		w.Finish()
		path := filepath.Join(t.TempDir(), "corrupt.ckpt")
		if err := Save(path, "k", "", writeLen); err != nil {
			t.Fatal(err)
		}
		readers := map[string]func() *Reader{
			"memory": func() *Reader { return NewReader(bytes.NewReader(buf.Bytes())) },
			"file": func() *Reader {
				r, err := Open(path, "k")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.Close() })
				return r
			},
		}
		if n > maxSliceLen {
			readers["stream"] = func() *Reader {
				return NewReader(struct{ *bytes.Reader }{bytes.NewReader(buf.Bytes())})
			}
		}
		for name, open := range readers {
			for walk, read := range map[string]func(c *Codec) int{
				"DataSlab": func(c *Codec) int { var s []uint64; DataSlab(c, &s); return len(s) },
				"Len":      func(c *Codec) int { var l int; Len(c, &l, 16); return l },
			} {
				c := NewDecoder(open())
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got := read(c)
				runtime.ReadMemStats(&after)
				if got != 0 || c.Err() == nil {
					t.Fatalf("%s %s: corrupt length %d accepted: %d / %v", name, walk, n, got, c.Err())
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
					t.Fatalf("%s %s: corrupt length %d allocated %d bytes before failing", name, walk, n, grew)
				}
			}
		}
	}
}

// TestReadSlabLengthMismatch: an in-place slab decode accepts only a
// recorded length equal to len(dst), for every element width, and a
// mismatch is sticky.
func TestReadSlabLengthMismatch(t *testing.T) {
	payload := encode(t, func(c *Codec) {
		Slab(c, []uint64{1, 2, 3})
		v := uint64(7)
		Uint(c, &v)
	})
	check := func(name string, decode func(c *Codec)) {
		c := NewDecoder(NewReader(bytes.NewReader(payload)))
		decode(c)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "slab of 3 elements") {
			t.Fatalf("%s: length mismatch not rejected: %v", name, err)
		}
		v := uint64(99)
		if Uint(c, &v); v != 0 || c.Err() == nil {
			t.Fatalf("%s: error not sticky", name)
		}
	}
	check("uint8", func(c *Codec) { Slab(c, make([]uint8, 4)) })
	check("uint32", func(c *Codec) { Slab(c, make([]uint32, 2)) })
	check("uint64", func(c *Codec) { Slab(c, make([]uint64, 0)) })
}
