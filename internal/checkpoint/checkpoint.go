// Package checkpoint implements the versioned, content-addressed
// warm-state checkpoint format (DESIGN.md §11). A checkpoint captures a
// system after Prewarm + WarmFunctional — the expensive part of every
// paper-scale run — so later runs with the same warm-relevant inputs
// restore it in roughly file-read time instead of re-simulating tens of
// millions of functional accesses.
//
// # Format
//
//	magic    "SILOCKPT"                  (8 bytes)
//	version  uint32 LE                   (FormatVersion)
//	key      length-prefixed string      (robust.Key over warm inputs)
//	meta     length-prefixed string      (human-readable JSON, for paperbench checkpoint-ls)
//	payload  section-framed component state (each component's walk)
//	crc      uint32 LE                   (CRC-32C over key, meta and payload)
//
// Every scalar is little-endian. Each component describes its payload
// once, as a walk over a Codec (codec.go): the same walk encodes through
// a Writer and decodes through a Reader. Every slab is a uint64 element
// count followed by its body. A fixed-size slab (cache arrays, DRAM-cache
// frames, timers) is sparse: each chunk of up to 4096 elements is a
// presence mask, one bit per element in little-endian uint64 words,
// followed by only the chunk's nonzero elements. It is decoded in place
// into the all-zero slab of the component that was built from the live
// Config, so a restore writes only live elements and allocates only the
// slabs whose length is data (a snoop filter's line table). Those stay
// dense: every element, in order. Shape fields (geometry, ids, flags)
// are recorded and compared, never overwritten.
// Sections are length-prefixed names the walk writes and then verifies,
// so a decoder that drifts out of sync fails on the next section check
// instead of silently misinterpreting bytes. The trailing CRC-32C
// (Castagnoli, hardware-accelerated on amd64/arm64) is verified by
// Reader.Finish before a restored system is accepted.
//
// Every failure mode — torn file, flipped byte, stale version, key
// mismatch, a shape the receiver does not have — surfaces as an error
// from Open, the Codec or Finish, never a panic: callers fall back to a
// from-scratch build.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
)

// ioBufSize sizes the bufio layers; checkpoints stream hundreds of
// megabytes at Scale 1, so a generous buffer keeps syscall counts low.
const ioBufSize = 1 << 20

func newBufWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, ioBufSize) }
func newBufReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, ioBufSize) }

// Magic identifies a checkpoint file.
const Magic = "SILOCKPT"

// FormatVersion is bumped whenever any component's walk changes the
// byte layout; a mismatch makes Open fail and the caller rebuild from
// scratch. core.TestCheckpointImageGolden pins the layout.
const FormatVersion = 7

// FormatTag names the format generation inside content-hash keys, so
// key derivation itself is versioned alongside the byte layout.
const FormatTag = "ckpt-v7"

// maxSliceLen caps slice lengths read before the CRC has been verified
// when the source's size is unknown (a Reader over a plain stream). It
// counts elements, not bytes; a Reader that knows its size (Open, or an
// in-memory source) instead rejects any length whose bytes the source
// does not hold, so a corrupt length cannot trigger an allocation larger
// than the file. The largest legitimate slice is a snoop filter's line
// table, which never tracks more lines than the private caches hold, far
// below this.
const maxSliceLen = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer serializes checkpoint payloads with a sticky error and a
// running CRC. All methods are no-ops once an error is set.
type Writer struct {
	w       io.Writer
	crc     uint32
	err     error
	scratch [8]byte
	buf     []byte // bulk-slice staging
}

// NewWriter wraps w. Callers normally use Save instead.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the sticky error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
	if _, err := w.w.Write(p); err != nil {
		w.err = err
	}
}

// writeRaw bypasses the CRC (magic and version only).
func (w *Writer) writeRaw(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(p); err != nil {
		w.err = err
	}
}

// word writes the low size bytes (1, 4 or 8) of v, little-endian.
func (w *Writer) word(v uint64, size int) {
	binary.LittleEndian.PutUint64(w.scratch[:], v)
	w.write(w.scratch[:size])
}

// writeString writes a length-prefixed string.
func (w *Writer) writeString(s string) {
	w.word(uint64(len(s)), 8)
	w.write([]byte(s))
}

// Word is the element type of a fixed-width slab: each element is
// stored as its own width, little-endian.
type Word interface{ ~uint8 | ~uint32 | ~uint64 }

// wordBytes returns T's width in bytes: 1, 4 or 8.
func wordBytes[T Word]() int { return bits.Len64(uint64(^T(0))) / 8 }

// bulkBytes sizes the staging buffer of each bulk flush or fill. It
// holds a whole sparse chunk (mask plus chunkElems 8-byte elements) with
// the 8 bytes of slack its word-at-a-time stores and loads run into.
const bulkBytes = 64 << 10

// chunkElems is the element count of a sparse slab chunk; its presence
// mask is chunkElems/64 words.
const chunkElems = 4096

// writeSlab writes a length-prefixed dense slab in bulk chunks.
func writeSlab[T Word](w *Writer, s []T) {
	w.word(uint64(len(s)), 8)
	size := wordBytes[T]()
	if w.buf == nil {
		w.buf = make([]byte, bulkBytes)
	}
	for len(s) > 0 {
		n := min(len(s), bulkBytes/size)
		b := w.buf[:n*size]
		switch size {
		case 1:
			for i, v := range s[:n] {
				b[i] = byte(v)
			}
		case 4:
			for i, v := range s[:n] {
				binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
			}
		default:
			for i, v := range s[:n] {
				binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
			}
		}
		w.write(b)
		s = s[n:]
	}
}

// writeSparse writes a length-prefixed sparse slab: per chunk of up to
// chunkElems elements, ceil(n/64) little-endian mask words, whose bit
// i%64 of word i/64 marks element i nonzero, then the nonzero elements
// in order at their own width.
func writeSparse[T Word](w *Writer, s []T) {
	w.word(uint64(len(s)), 8)
	size := wordBytes[T]()
	if w.buf == nil {
		w.buf = make([]byte, bulkBytes)
	}
	for len(s) > 0 {
		n := min(len(s), chunkElems)
		maskBytes := (n + 63) / 64 * 8
		mask := w.buf[:maskBytes]
		clear(mask)
		end := maskBytes
		for i, v := range s[:n] {
			if v != 0 {
				mask[i/8] |= 1 << (i % 8) // bit i%64 of little-endian word i/64
				binary.LittleEndian.PutUint64(w.buf[end:], uint64(v))
				end += size
			}
		}
		w.write(w.buf[:end])
		s = s[n:]
	}
}

// writePacked writes n width-bit fields of s as a length-prefixed sparse
// body: per chunk of up to chunkElems fields, ceil(n/64) mask words as in
// writeSparse, then the nonzero fields in ceil(width/8) bytes each. The
// 64 fields of each mask word fill exactly width words of s (fewer at its
// end), so it reads those words once, skips them when all are zero, and
// otherwise extracts only the fields that overlap a nonzero word: a field
// within zero words is zero.
func writePacked(w *Writer, s []byte, width uint, n int) {
	w.word(uint64(n), 8)
	size := int(width+7) / 8
	if w.buf == nil {
		w.buf = make([]byte, bulkBytes)
	}
	fieldMask := uint64(1)<<width - 1
	var blk [65]uint64 // width words, and one that stays zero
	for base := 0; base < n; base += chunkElems {
		k := min(n-base, chunkElems)
		maskBytes := (k + 63) / 64 * 8
		mask := w.buf[:maskBytes]
		clear(mask)
		end := maskBytes
		for j := 0; 64*j < k; j++ {
			q0 := (base/64 + j) * int(width)
			words := min(int(width), len(s)/8-q0)
			live := uint64(0)
			for q := range words {
				blk[q] = binary.LittleEndian.Uint64(s[8*(q0+q):])
				live |= blk[q]
			}
			if live == 0 {
				continue
			}
			clear(blk[words : width+1])
			fields := min(64, k-64*j)
			next := 0 // the first field not yet extracted
			for q := range words {
				if blk[q] == 0 {
					continue
				}
				// Fields first to last overlap word q's bits 64q..64q+63.
				first, last := max(next, 64*q/int(width)), min(fields-1, (64*q+63)/int(width))
				for f := first; f <= last; f++ {
					o := uint(f) * width
					if v := (blk[o/64]>>(o%64) | blk[o/64+1]<<(63-o%64)<<1) & fieldMask; v != 0 {
						i := 64*j + f
						mask[i/8] |= 1 << (i % 8) // bit i%64 of little-endian word i/64
						binary.LittleEndian.PutUint64(w.buf[end:], v)
						end += size
					}
				}
				next = max(next, last+1)
			}
		}
		w.write(w.buf[:end])
	}
}

// Finish writes the trailing CRC. Save calls it automatically; it is
// exported for in-memory Writer/Reader round trips (tests,
// size probes).
func (w *Writer) Finish() error {
	if w.err != nil {
		return w.err
	}
	binary.LittleEndian.PutUint32(w.scratch[:4], w.crc)
	w.writeRaw(w.scratch[:4])
	return w.err
}

// Reader deserializes checkpoint payloads with a sticky error and a
// running CRC mirroring Writer's.
type Reader struct {
	r       io.Reader
	crc     uint32
	err     error
	scratch [8]byte
	buf     []byte

	// left counts the bytes the source still holds, or is -1 when its
	// size is unknown; sliceLen checks lengths against it.
	left int64

	// Header fields populated by Open.
	Key  string
	Meta string

	close io.Closer
}

// NewReader wraps r. Callers normally use Open instead. A source that
// reports its unread size (bytes.Reader, strings.Reader) bounds slice
// lengths by it; any other source falls back to maxSliceLen.
func NewReader(r io.Reader) *Reader {
	left := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		left = int64(l.Len())
	}
	return &Reader{r: r, left: left}
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) read(p []byte) bool {
	if !r.readRaw(p) {
		return false
	}
	r.crc = crc32.Update(r.crc, castagnoli, p)
	return true
}

// readRaw bypasses the CRC (magic, version, trailing checksum).
func (r *Reader) readRaw(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = fmt.Errorf("checkpoint: truncated: %w", err)
		return false
	}
	if r.left >= 0 {
		r.left -= int64(len(p))
	}
	return true
}

// word reads a little-endian value of size bytes (1, 4 or 8); it reads
// as 0 once the sticky error is set.
func (r *Reader) word(size int) uint64 {
	clear(r.scratch[:])
	if !r.read(r.scratch[:size]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.scratch[:])
}

// sliceLen reads a slice-length prefix for elements of elemBytes each.
// A length whose bytes the source does not hold (or, for a source of
// unknown size, one above maxSliceLen) sets the sticky error and reads
// as 0, so a corrupt length fails before its caller allocates anything.
func (r *Reader) sliceLen(elemBytes int) int {
	n := r.word(8)
	if r.err != nil {
		return 0
	}
	if r.left >= 0 && n > uint64(r.left)/uint64(elemBytes) || r.left < 0 && n > maxSliceLen {
		r.fail(fmt.Errorf("checkpoint: corrupt slice length %d", n))
		return 0
	}
	return int(n)
}

// readString reads a length-prefixed string.
func (r *Reader) readString() string {
	n := r.sliceLen(1)
	if r.err != nil || n == 0 {
		return ""
	}
	p := make([]byte, n)
	if !r.read(p) {
		return ""
	}
	return string(p)
}

// readSparse decodes a slab written by writeSparse into dst in place,
// writing only its nonzero elements: dst must hold all zeros. The stored
// length must equal len(dst) — dst was built from the live Config, so
// any other length means the checkpoint was cut for another geometry —
// and a mismatch sets the sticky error without allocating. Only the
// canonical encoding decodes: a mask bit past the slab's end, or a
// marked element that is zero, sets the sticky error too, so each slab
// has exactly one image. On error dst may hold a partial decode; the
// caller discards it.
func readSparse[T Word](r *Reader, dst []T) {
	n := r.word(8)
	if r.err != nil {
		return
	}
	if n != uint64(len(dst)) {
		r.fail(fmt.Errorf("checkpoint: slab of %d elements, want %d", n, len(dst)))
		return
	}
	size := wordBytes[T]()
	if r.buf == nil {
		r.buf = make([]byte, bulkBytes)
	}
	for base := 0; base < len(dst); base += chunkElems {
		chunk := dst[base:min(len(dst), base+chunkElems)]
		words := (len(chunk) + 63) / 64
		maskBytes := words * 8
		if !r.read(r.buf[:maskBytes]) {
			return
		}
		live := 0
		for j := range words {
			live += bits.OnesCount64(binary.LittleEndian.Uint64(r.buf[8*j:]))
		}
		if tail := len(chunk) % 64; tail != 0 {
			if past := binary.LittleEndian.Uint64(r.buf[maskBytes-8:]) >> tail; past != 0 {
				r.fail(fmt.Errorf("checkpoint: slab mask marks element %d past its end %d",
					base+len(chunk)+bits.TrailingZeros64(past), len(dst)))
				return
			}
		}
		if !r.read(r.buf[maskBytes : maskBytes+live*size]) {
			return
		}
		at := maskBytes
		for j := range words {
			for m := binary.LittleEndian.Uint64(r.buf[8*j:]); m != 0; m &= m - 1 {
				i := 64*j + bits.TrailingZeros64(m)
				v := T(binary.LittleEndian.Uint64(r.buf[at:])) // truncates to T's width
				if v == 0 {
					r.fail(fmt.Errorf("checkpoint: slab element %d marked live but zero", base+i))
					return
				}
				chunk[i] = v
				at += size
			}
		}
	}
}

// readPacked decodes a body written by writePacked into the all-zero
// slab dst, storing only the words that hold its nonzero fields, under
// readSparse's rules: the stored count must be n, no mask bit may pass
// the end, and a marked field must be nonzero and fit in width bits.
func readPacked(r *Reader, dst []byte, width uint, n int) {
	if got := r.word(8); r.err != nil {
		return
	} else if got != uint64(n) {
		r.fail(fmt.Errorf("checkpoint: packed slab of %d fields, want %d", got, n))
		return
	}
	size := int(width+7) / 8
	bytesMask, fieldMask := uint64(1)<<(8*size)-1, uint64(1)<<width-1
	var blk [65]uint64 // width words, and one that stays zero
	if r.buf == nil {
		r.buf = make([]byte, bulkBytes)
	}
	for base := 0; base < n; base += chunkElems {
		k := min(n-base, chunkElems)
		words := (k + 63) / 64
		maskBytes := words * 8
		if !r.read(r.buf[:maskBytes]) {
			return
		}
		live := 0
		for j := range words {
			live += bits.OnesCount64(binary.LittleEndian.Uint64(r.buf[8*j:]))
		}
		if tail := k % 64; tail != 0 {
			if past := binary.LittleEndian.Uint64(r.buf[maskBytes-8:]) >> tail; past != 0 {
				r.fail(fmt.Errorf("checkpoint: packed slab mask marks field %d past its end %d",
					base+k+bits.TrailingZeros64(past), n))
				return
			}
		}
		if !r.read(r.buf[maskBytes : maskBytes+live*size]) {
			return
		}
		at := maskBytes
		for j := range words {
			m := binary.LittleEndian.Uint64(r.buf[8*j:])
			if m == 0 {
				continue
			}
			// The 64 fields of mask word j fill exactly width words of dst:
			// assemble them in blk and store each once, so no store
			// overlaps another one partially.
			clear(blk[:width+1])
			for ; m != 0; m &= m - 1 {
				f := bits.TrailingZeros64(m)
				v := binary.LittleEndian.Uint64(r.buf[at:]) & bytesMask
				if v-1 >= fieldMask { // v is 0 or wider than width
					r.fail(fmt.Errorf("checkpoint: packed field %d marked live holds %#x, not a nonzero %d-bit value",
						base+64*j+f, v, width))
					return
				}
				o := uint(f) * width
				blk[o/64] |= v << (o % 64)
				blk[o/64+1] |= v >> (63 - o%64) >> 1
				at += size
			}
			// A nonzero word holds a field's bits, so it lies within dst.
			q0 := uint64(base/64+j) * uint64(width)
			for q, x := range blk[:width] {
				if x != 0 {
					binary.LittleEndian.PutUint64(dst[8*(q0+uint64(q)):], x)
				}
			}
		}
	}
}

// decodeSlab fills dst from bulk reads of a dense slab body, reporting
// success.
func decodeSlab[T Word](r *Reader, dst []T) bool {
	size := wordBytes[T]()
	if r.buf == nil {
		r.buf = make([]byte, bulkBytes)
	}
	for len(dst) > 0 {
		n := min(len(dst), bulkBytes/size)
		b := r.buf[:n*size]
		if !r.read(b) {
			return false
		}
		switch size {
		case 1:
			for i := range dst[:n] {
				dst[i] = T(b[i])
			}
		case 4:
			for i := range dst[:n] {
				dst[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
			}
		default:
			for i := range dst[:n] {
				dst[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
		dst = dst[n:]
	}
	return true
}

// Finish verifies the trailing CRC over everything read so far. It must
// be called (and succeed) before a restored system is trusted.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc
	if !r.readRaw(r.scratch[:4]) {
		return r.err
	}
	got := binary.LittleEndian.Uint32(r.scratch[:4])
	if got != want {
		r.fail(fmt.Errorf("checkpoint: checksum mismatch (file %08x, computed %08x)", got, want))
	}
	return r.err
}

// Close releases the underlying file when the Reader came from Open.
func (r *Reader) Close() error {
	if r.close != nil {
		err := r.close.Close()
		r.close = nil
		return err
	}
	return nil
}

// Save streams a checkpoint to path atomically: payload is written to a
// same-directory temp file and moved into place with fsync + rename
// (robust.CommitFile), so a crash mid-save never leaves a torn
// checkpoint under the final name. Concurrent saves of the same key are
// benign — last rename wins with identical content.
func Save(path, key, meta string, write func(*Writer) error) (err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(name)
		}
	}()

	bw := newBufWriter(tmp)
	w := NewWriter(bw)
	w.writeRaw([]byte(Magic))
	var vbuf [4]byte
	binary.LittleEndian.PutUint32(vbuf[:], FormatVersion)
	w.writeRaw(vbuf[:])
	w.writeString(key)
	w.writeString(meta)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := commitFile(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// commitFile atomically moves a finished temp file into place (fsync +
// rename + directory fsync). It mirrors robust.CommitFile, which this
// package cannot import: robust depends on sim (fault injection), and
// sim's engine checkpoint walk depends on this package.
func commitFile(tmp, path string) error {
	f, err := os.Open(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ErrKeyMismatch reports a checkpoint whose content key does not match
// the caller's expectation — same filename, different warm inputs (or a
// renamed file). Callers rebuild from scratch.
var ErrKeyMismatch = errors.New("checkpoint: key mismatch")

// ErrVersionMismatch reports a checkpoint written by a different format
// generation. Callers rebuild from scratch.
var ErrVersionMismatch = errors.New("checkpoint: format version mismatch")

// Open validates a checkpoint header against wantKey and returns a
// Reader positioned at the payload. Any failure — missing file, bad
// magic, stale version, foreign key — is an error; the caller falls
// back to a from-scratch build. An empty wantKey skips the key check
// (used by paperbench checkpoint-ls, which inspects every file).
func Open(path, wantKey string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r := NewReader(newBufReader(f))
	r.close = f
	r.left = fi.Size()
	var hdr [len(Magic) + 4]byte
	if !r.readRaw(hdr[:]) {
		f.Close()
		return nil, r.err
	}
	if string(hdr[:len(Magic)]) != Magic {
		f.Close()
		return nil, fmt.Errorf("checkpoint: bad magic in %s", path)
	}
	version := binary.LittleEndian.Uint32(hdr[len(Magic):])
	if version != FormatVersion {
		f.Close()
		return nil, fmt.Errorf("%w: file v%d, supported v%d", ErrVersionMismatch, version, FormatVersion)
	}
	r.Key = r.readString()
	r.Meta = r.readString()
	if r.err != nil {
		f.Close()
		return nil, r.err
	}
	if wantKey != "" && r.Key != wantKey {
		f.Close()
		return nil, fmt.Errorf("%w: file %s, want %s", ErrKeyMismatch, r.Key, wantKey)
	}
	return r, nil
}
