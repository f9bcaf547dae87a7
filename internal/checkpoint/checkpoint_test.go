package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
	u8s    [][]uint8 // fixed-size slabs: see testSlabs
	u32s   [][]uint32
	u64s   [][]uint64
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
	for _, s := range f.u8s {
		Slab(c, s)
	}
	for _, s := range f.u32s {
		Slab(c, s)
	}
	for _, s := range f.u64s {
		Slab(c, s)
	}
	Slab(c, f.cycles)
	DataSlab(c, &f.data)
	DataSlab(c, &f.empty)
}

// liveAt marks a mixed slab's nonzero elements. Chunks (4096 elements)
// cycle through sparse (every 7th element), full and empty, so masks
// hold partial, all-ones and all-zero words.
func liveAt(i int) bool {
	switch i / chunkElems % 3 {
	case 0:
		return i%7 == 0
	case 1:
		return true
	}
	return false
}

func noneLive(int) bool { return false }
func allLive(int) bool  { return true }

// testSlab returns n elements, nonzero where live says: odd multiples
// of mul.
func testSlab[T Word](n int, mul T, live func(int) bool) []T {
	s := make([]T, n)
	for i := range s {
		if live(i) {
			s[i] = T(i)*mul | 1
		}
	}
	return s
}

// testSlabs returns an all-zero, an all-live and a mixed slab at each of
// two lengths, neither a multiple of 64 nor of 4096: one spans several
// chunks and bulk buffers, one is shorter than a mask word.
func testSlabs[T Word](long int, mul T) [][]T {
	var out [][]T
	for _, n := range []int{long, 63} {
		for _, live := range []func(int) bool{noneLive, allLive, liveAt} {
			out = append(out, testSlab(n, mul, live))
		}
	}
	return out
}

// zerosLike returns all-zero slabs of the lengths in ss: a receiver as a
// freshly built component holds them.
func zerosLike[T Word](ss [][]T) [][]T {
	out := make([][]T, len(ss))
	for i, s := range ss {
		out[i] = make([]T, len(s))
	}
	return out
}

// encode runs walk through an encoder and returns the payload with its
// trailing CRC.
func encode(t testing.TB, walk func(*Codec)) []byte {
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
// and the scalars sit at their documented widths. Fixed-size slabs of
// each width come all zero, all live and mixed, at lengths off the
// mask-word and chunk boundaries.
func TestRoundTripScalarsAndSlices(t *testing.T) {
	want := testFields{
		u64: 0xDEADBEEFCAFEF00D, u32: 0x1234ABCD, u8: 0x7F, i64: -42, n: 1 << 40,
		yes: true, s: "hello, checkpoint",
		u8s:    testSlabs[uint8](70_001, 131), // the long slabs span several bulk buffers
		u32s:   testSlabs[uint32](20_001, 2654435761),
		u64s:   testSlabs[uint64](12_345, 0x9E3779B97F4A7C15),
		cycles: []cycle{1, 1 << 40, 1<<64 - 1},
	}
	want.data = testSlab[uint64](10_000, 0x9E3779B97F4A7C15, liveAt)
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
		u8s:    zerosLike(want.u8s),
		u32s:   zerosLike(want.u32s),
		u64s:   zerosLike(want.u64s),
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

// TestSlabLayout pins the sparse body byte for byte: the element count,
// one mask word per 64 elements of the chunk, then the nonzero elements
// at their own width; the second chunk of a 4097-element slab has one
// mask word.
func TestSlabLayout(t *testing.T) {
	payload := encode(t, func(c *Codec) {
		Slab(c, []uint32{0, 7, 0, 0x0A0B0C0D})
		big := make([]uint8, chunkElems+1)
		big[64], big[chunkElems] = 5, 6
		Slab(c, big)
	})
	want := []byte{
		4, 0, 0, 0, 0, 0, 0, 0, // 4 elements
		0x0A, 0, 0, 0, 0, 0, 0, 0, // elements 1 and 3 live
		7, 0, 0, 0, 0x0D, 0x0C, 0x0B, 0x0A,
		1, 0x10, 0, 0, 0, 0, 0, 0, // 4097 elements
	}
	want = append(want, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0) // word 1, bit 0: element 64
	want = append(want, make([]byte, 62*8)...)
	want = append(want, 5)
	want = append(want, 1, 0, 0, 0, 0, 0, 0, 0, 6) // the 1-element chunk
	if got := payload[:len(payload)-4]; !bytes.Equal(got, want) {
		t.Fatalf("sparse slab bytes\n got %x\nwant %x", got, want)
	}
}

// TestSlabDecodeWritesOnlyLive: a decode writes the recorded nonzero
// elements and nothing else, so a receiver's zero elements are never
// touched — the reason Slab needs an all-zero receiver, and the reason a
// restore writes only the pages that hold live state.
func TestSlabDecodeWritesOnlyLive(t *testing.T) {
	t.Run("uint8", func(t *testing.T) { checkOnlyLive(t, testSlab[uint8](9000, 131, liveAt), 0xAA) })
	t.Run("uint32", func(t *testing.T) { checkOnlyLive(t, testSlab[uint32](9000, 2654435761, liveAt), 0xAAAAAAAA) })
	t.Run("uint64", func(t *testing.T) { checkOnlyLive(t, testSlab[uint64](9000, 3, liveAt), 0xAAAAAAAAAAAAAAAA) })
}

// checkOnlyLive decodes want into a receiver filled with the even
// sentinel (testSlab's nonzero elements are odd) and checks that every
// zero position still holds it.
func checkOnlyLive[T Word](t *testing.T, want []T, sentinel T) {
	payload := encode(t, func(c *Codec) { Slab(c, want) })
	got := make([]T, len(want))
	for i := range got {
		got[i] = sentinel
	}
	c := NewDecoder(NewReader(bytes.NewReader(payload)))
	Slab(c, got)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if w == 0 && got[i] != sentinel || w != 0 && got[i] != w {
			t.Fatalf("element %d: got %#x, want %#x (sentinel %#x)", i, got[i], w, sentinel)
		}
	}
}

// TestSlabRejectsNonCanonical: the decoder accepts only the image the
// encoder writes. A mask bit past the slab's end, a marked element that
// is zero, and a chunk cut short each set the sticky error.
func TestSlabRejectsNonCanonical(t *testing.T) {
	le := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	mixed := encode(t, func(c *Codec) { Slab(c, testSlab[uint64](chunkElems+1, 3, liveAt)) })
	cases := []struct {
		name    string
		payload []byte
		decode  func(c *Codec)
		want    string
	}{
		{"bit past the end of a short slab", le(63, 1<<63, 9),
			func(c *Codec) { Slab(c, make([]uint64, 63)) }, "element 63 past its end 63"},
		{"bit past the end of a 4097-element slab", append(append(le(chunkElems+1), make([]byte, 512)...), le(2, 9)...),
			func(c *Codec) { Slab(c, make([]uint64, chunkElems+1)) }, "element 4097 past its end 4097"},
		{"marked zero uint64", le(64, 1<<5, 0),
			func(c *Codec) { Slab(c, make([]uint64, 64)) }, "element 5 marked live but zero"},
		{"marked zero uint8", append(le(3, 0b101), 4, 0),
			func(c *Codec) { Slab(c, make([]uint8, 3)) }, "element 2 marked live but zero"},
		{"chunk cut inside its mask", mixed[:8+100],
			func(c *Codec) { Slab(c, make([]uint64, chunkElems+1)) }, "truncated"},
		{"chunk cut inside its elements", mixed[:8+512+20],
			func(c *Codec) { Slab(c, make([]uint64, chunkElems+1)) }, "truncated"},
	}
	for _, tc := range cases {
		c := NewDecoder(NewReader(bytes.NewReader(tc.payload)))
		tc.decode(c)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want error %q, got %v", tc.name, tc.want, err)
		}
		v := uint64(99)
		if Uint(c, &v); v != 0 || !strings.Contains(c.Err().Error(), tc.want) {
			t.Fatalf("%s: error not sticky", tc.name)
		}
	}
}

// orPackedField ORs v into field i of width bits of s (Packed's layout).
func orPackedField(s []byte, i int, width uint, v uint64) {
	o := uint64(i) * uint64(width)
	q, r := o/64*8, o%64
	binary.LittleEndian.PutUint64(s[q:], binary.LittleEndian.Uint64(s[q:])|v<<r)
	if r+uint64(width) > 64 {
		binary.LittleEndian.PutUint64(s[q+8:], binary.LittleEndian.Uint64(s[q+8:])|v>>(64-r))
	}
}

// testField is testPacked's field i: a width-bit pattern, or 0 where
// liveAt is false.
func testField(i int, width uint) uint64 {
	if !liveAt(i) {
		return 0
	}
	return (uint64(i)*0x9E3779B97F4A7C15 | 1) & (1<<width - 1)
}

// testPacked packs n fields of width bits into a byte slab with one
// padding word, as cache does.
func testPacked(n int, width uint) []byte {
	s := make([]byte, 8*((n*int(width)+63)/64+1))
	for i := range n {
		orPackedField(s, i, width, testField(i, width))
	}
	return s
}

// TestPackedRoundTrip: packed slabs of every width a cache slot takes
// (3 to 43 bits) and the bounds (1 and 64), at lengths around a mask
// word and a chunk, with whole mask words of dead fields, decode byte for
// byte into an all-zero receiver, and a field reads back bit by bit where
// Packed's layout puts it.
func TestPackedRoundTrip(t *testing.T) {
	for _, width := range []uint{1, 3, 16, 18, 21, 23, 26, 31, 37, 43, 64} {
		for _, n := range []int{0, 1, 63, 64, chunkElems, chunkElems + 1, 9000} {
			want := testPacked(n, width)
			payload := encode(t, func(c *Codec) { Packed(c, want, width, n) })
			got := make([]byte, len(want))
			c := NewDecoder(NewReader(bytes.NewReader(payload)))
			Packed(c, got, width, n)
			if err := c.Err(); err != nil {
				t.Fatalf("%d fields of %d bits: %v", n, width, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d fields of %d bits: decoded slab differs", n, width)
			}
			for i := 0; i < n; i += 97 {
				var v uint64
				for b := range width {
					bit := uint(i)*width + b
					v |= uint64(want[bit/8]>>(bit%8)&1) << b
				}
				if f := testField(i, width); f != v {
					t.Fatalf("field %d of %d bits: its bits read %#x, want %#x", i, width, v, f)
				}
			}
		}
	}
}

// TestPackedSingleLiveField: a slab whose only live field is f, holding
// its lowest bit, its highest bit or all of them, encodes as f's mask bit
// and f alone and decodes back, for every f of two mask words. The
// encoder extracts only the fields that overlap a nonzero word, so a
// field whose live bits all lie in the word after its first one must
// still be found.
func TestPackedSingleLiveField(t *testing.T) {
	for _, width := range []uint{3, 16, 21, 43, 64} {
		const n = 128
		for f := range n {
			for _, v := range []uint64{1, 1 << (width - 1), 1<<width - 1} {
				s := make([]byte, 8*((n*int(width)+63)/64+1))
				orPackedField(s, f, width, v)
				payload := encode(t, func(c *Codec) { Packed(c, s, width, n) })
				size := int(width+7) / 8
				if body := len(payload) - 8 - 4; body != 16+size {
					t.Fatalf("%d-bit field %d = %#x: a body of %d bytes, want %d", width, f, v, body, 16+size)
				}
				got := make([]byte, len(s))
				c := NewDecoder(NewReader(bytes.NewReader(payload)))
				if Packed(c, got, width, n); c.Err() != nil || !bytes.Equal(got, s) {
					t.Fatalf("%d-bit field %d = %#x: decoded %v, slab equal %v", width, f, v, c.Err(), bytes.Equal(got, s))
				}
			}
		}
	}
}

// TestPackedLayout pins the packed body byte for byte: the field count,
// the mask word, then each live field in ceil(width/8) bytes.
func TestPackedLayout(t *testing.T) {
	s := make([]byte, 16)
	orPackedField(s, 1, 21, 5)
	orPackedField(s, 2, 21, 0x1FFFFF)
	payload := encode(t, func(c *Codec) { Packed(c, s, 21, 3) })
	want := []byte{
		3, 0, 0, 0, 0, 0, 0, 0, // 3 fields
		0b110, 0, 0, 0, 0, 0, 0, 0, // fields 1 and 2 live
		5, 0, 0,
		0xFF, 0xFF, 0x1F,
	}
	if got := payload[:len(payload)-4]; !bytes.Equal(got, want) {
		t.Fatalf("packed slab bytes\n got %x\nwant %x", got, want)
	}
}

// TestPackedRejectsNonCanonical: as with Slab, a packed decode accepts
// only the encoder's image: the recorded count, no mask bit past the
// end, and live fields that are nonzero and fit their width. Either
// direction rejects a slab that is not whole words.
func TestPackedRejectsNonCanonical(t *testing.T) {
	le := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"count", le(4, 1), "packed slab of 4 fields, want 3"},
		{"bit past the end", le(3, 1<<3), "field 3 past its end 3"},
		{"marked zero", append(le(3, 1<<1), 0, 0, 0), "field 1 marked live holds 0x0"},
		{"wider than the field", append(le(3, 1), 0, 0, 0x20), "field 0 marked live holds 0x200000"},
	}
	for _, tc := range cases {
		c := NewDecoder(NewReader(bytes.NewReader(tc.payload)))
		Packed(c, make([]byte, 16), 21, 3)
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want error %q, got %v", tc.name, tc.want, err)
		}
	}
	for _, size := range []int{8, 12} {
		c := NewEncoder(NewWriter(io.Discard))
		if Packed(c, make([]byte, size), 21, 3); (c.Err() == nil) != (size == 8) {
			t.Fatalf("3 fields of 21 bits in a slab of %d bytes: %v", size, c.Err())
		}
	}
}

// fuzzSlabLens are FuzzSlab's receiver lengths: empty, shorter than, at
// and past one mask word, and at and past one chunk.
var fuzzSlabLens = []int{0, 1, 63, 64, chunkElems, chunkElems + 1}

// FuzzSlab feeds arbitrary slab bodies to Slab decoders of every width,
// and to Packed decoders of 21- and 43-bit fields, at each fuzzSlabLens
// length; the harness prefixes the receiver's length,
// so every decode reaches the masks. Each decode must fail with an
// error or yield a slab whose re-encoding is exactly the bytes it
// consumed — each slab has one image — and none may panic. The seeds
// are mixed slabs of each width and length.
func FuzzSlab(f *testing.F) {
	for _, n := range fuzzSlabLens {
		for _, seed := range [][]byte{
			encode(f, func(c *Codec) { Slab(c, testSlab[uint8](n, 131, liveAt)) }),
			encode(f, func(c *Codec) { Slab(c, testSlab[uint32](n, 2654435761, liveAt)) }),
			encode(f, func(c *Codec) { Slab(c, testSlab[uint64](n, 3, liveAt)) }),
		} {
			f.Add(seed[8 : len(seed)-4]) // the body: no length, no CRC
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, n := range fuzzSlabLens {
			fuzzSlab[uint8](t, n, body)
			fuzzSlab[uint32](t, n, body)
			fuzzSlab[uint64](t, n, body)
			fuzzPacked(t, n, 21, body)
			fuzzPacked(t, n, 43, body)
		}
	})
}

// fuzzBufs are the bulk buffers every FuzzSlab Reader and Writer
// shares, so an input costs no 64 KiB allocations; fuzz inputs run one
// at a time in each worker process.
var fuzzBufs = [2][]byte{make([]byte, bulkBytes), make([]byte, bulkBytes)}

func fuzzSlab[T Word](t *testing.T, n int, body []byte) {
	payload := append(binary.LittleEndian.AppendUint64(nil, uint64(n)), body...)
	src := bytes.NewReader(payload)
	r := NewReader(src)
	r.buf = fuzzBufs[0]
	c := NewDecoder(r)
	s := make([]T, n)
	Slab(c, s)
	if c.Err() != nil {
		return
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.buf = fuzzBufs[1]
	Slab(NewEncoder(w), s)
	if consumed := payload[:len(payload)-src.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
		t.Fatalf("%d-byte slab of %d: decoded from %x, re-encodes as %x", wordBytes[T](), n, consumed, buf.Bytes())
	}
}

// fuzzPacked is fuzzSlab for a Packed decoder of n fields of width bits.
func fuzzPacked(t *testing.T, n int, width uint, body []byte) {
	payload := append(binary.LittleEndian.AppendUint64(nil, uint64(n)), body...)
	src := bytes.NewReader(payload)
	r := NewReader(src)
	r.buf = fuzzBufs[0]
	c := NewDecoder(r)
	s := make([]byte, 8*((n*int(width)+63)/64+1))
	Packed(c, s, width, n)
	if c.Err() != nil {
		return
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.buf = fuzzBufs[1]
	Packed(NewEncoder(w), s, width, n)
	if consumed := payload[:len(payload)-src.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
		t.Fatalf("%d fields of %d bits: decoded from %x, re-encodes as %x", n, width, consumed, buf.Bytes())
	}
}
