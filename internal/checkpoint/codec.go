package checkpoint

import "fmt"

// Codec walks a component's checkpoint state in one of two directions.
// An encoder (NewEncoder) writes every field it is handed; a decoder
// (NewDecoder) reads the same bytes back into the same fields of a
// component freshly built from the live Config. Each component therefore
// describes its state once, in one Checkpoint(c *Codec) walk, and the two
// directions cannot disagree about the layout.
//
// State fields (counters, cursors, RNG states, slabs) are passed by
// pointer and overwritten on decode. Shape fields (geometry, ids, idle
// and quiescent flags, store kinds) go through Shape: the encoder
// records them and the decoder compares the recorded value with the
// receiver's, failing on any difference. Every failure is sticky — each
// later primitive is a no-op — and a component that failed to decode
// holds a partial state and must be discarded.
type Codec struct {
	w   *Writer // set when encoding
	r   *Reader // set when decoding
	err *error  // the sticky error of w or r
}

// NewEncoder returns a Codec whose walks write to w.
func NewEncoder(w *Writer) *Codec { return &Codec{w: w, err: &w.err} }

// NewDecoder returns a Codec whose walks read from r.
func NewDecoder(r *Reader) *Codec { return &Codec{r: r, err: &r.err} }

// Decoding reports whether walks read (true) or write (false). Walks
// branch on it only where decoding has work encoding has not, such as
// rebuilding state a later field is decoded against.
func (c *Codec) Decoding() bool { return c.r != nil }

// Err returns the sticky error, if any.
func (c *Codec) Err() error { return *c.err }

// Check fails the walk with a formatted error unless ok. It guards the
// ranges of decoded values (occupancy, cursors, table geometry) and the
// receiver's own preconditions, in both directions; after an earlier
// failure it is a no-op.
func (c *Codec) Check(ok bool, format string, args ...any) {
	if !ok && *c.err == nil {
		*c.err = fmt.Errorf(format, args...)
	}
}

// word walks the low size bytes (1, 4 or 8) of v: the encoder writes v
// and returns it, the decoder returns what it read (0 after an error).
func (c *Codec) word(v uint64, size int) uint64 {
	if c.r != nil {
		return c.r.word(size)
	}
	c.w.word(v, size)
	return v
}

// Section walks a section marker: the encoder writes name, the decoder
// fails unless the next marker is name, so a walk that drifts out of
// step fails at a named place.
func (c *Codec) Section(name string) {
	got := name
	String(c, &got)
	c.Check(got == name, "checkpoint: section mismatch: want %q, got %q", name, got)
}

// Uint walks an unsigned word at its own width.
func Uint[T Word](c *Codec, p *T) {
	if v := T(c.word(uint64(*p), wordBytes[T]())); c.r != nil {
		*p = v
	}
}

// Integer is a field Int walks as 8 bytes, whatever the platform's int
// width.
type Integer interface{ ~int | ~int64 | ~uint }

// Int walks an integer as 8 bytes, little-endian two's complement.
func Int[T Integer](c *Codec, p *T) {
	if v := T(c.word(uint64(*p), 8)); c.r != nil {
		*p = v
	}
}

// Bool walks a bool as one byte.
func Bool(c *Codec, p *bool) {
	var b uint64
	if *p {
		b = 1
	}
	if v := c.word(b, 1); c.r != nil {
		*p = v != 0
	}
}

// String walks a length-prefixed string.
func String(c *Codec, p *string) {
	if c.r == nil {
		c.w.writeString(*p)
	} else {
		*p = c.r.readString()
	}
}

// Shape walks a field the receiver already holds — geometry, an id, a
// flag — with the primitive walk: the encoder records want, the decoder
// reads the recorded value and fails unless it equals want. name labels
// the mismatch.
func Shape[T comparable](c *Codec, name string, want T, walk func(*Codec, *T)) {
	got := want
	walk(c, &got)
	c.Check(got == want, "checkpoint: %s %v recorded, receiver has %v", name, got, want)
}

// Slab walks a fixed-size slab in place, sparsely: the encoder writes
// each chunk of up to 4096 elements as a presence mask followed by only
// its nonzero elements, and the decoder writes just those elements into
// s. The receiver's s must therefore hold all zeros, as every slab of a
// component freshly built from the live Config does. Its length is
// geometry the receiver was built with, so the decoder fails, without
// allocating, on a recorded length other than len(s); it also rejects
// any image but the canonical one (a mask bit past the end, a marked
// element that is zero).
func Slab[T Word](c *Codec, s []T) {
	if c.r == nil {
		writeSparse(c.w, s)
	} else {
		readSparse(c.r, s)
	}
}

// Packed walks n fields of width bits (1 to 64) packed into the byte
// slab s of whole little-endian uint64 words, field i at bits i·width
// upward of s read as one little-endian bit string, sparsely per field:
// the encoder writes each chunk of up to 4096 fields as a presence mask
// followed by only its nonzero fields, each in ceil(width/8)
// little-endian bytes, and the decoder writes just those fields into s.
// As with Slab, s must hold all zeros on decode, n is geometry (a
// recorded count other than n fails without allocating), and only the
// canonical image decodes: a field marked live must be nonzero and fit
// in width bits.
func Packed(c *Codec, s []byte, width uint, n int) {
	c.Check(width >= 1 && width <= 64 && len(s)%8 == 0 && uint64(n)*uint64(width) <= 8*uint64(len(s)),
		"checkpoint: %d fields of %d bits do not fit a slab of %d bytes in whole words", n, width, len(s))
	if *c.err != nil {
		return
	}
	if c.r == nil {
		writePacked(c.w, s, width, n)
	} else {
		readPacked(c.r, s, width, n)
	}
}

// DataSlab walks a slab whose length is data, not geometry (a snoop
// filter's line table, sized by how much warm-up filled it), densely:
// every element in order. The decoder replaces *p with a slab of the
// recorded length, once the length has passed the bound of the bytes
// the source holds (a dense body is what makes that bound hold); an
// empty slab decodes as nil.
func DataSlab[T Word](c *Codec, p *[]T) {
	if c.r == nil {
		writeSlab(c.w, *p)
		return
	}
	*p = nil
	if n := c.r.sliceLen(wordBytes[T]()); n > 0 {
		s := make([]T, n)
		if decodeSlab(c.r, s) {
			*p = s
		}
	}
}

// Len walks the length of a slice the caller walks element by element,
// elemBytes per element: the decoder's length is bounded like
// DataSlab's.
func Len(c *Codec, n *int, elemBytes int) {
	if c.r == nil {
		c.w.word(uint64(*n), 8)
	} else {
		*n = c.r.sliceLen(elemBytes)
	}
}
