package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// Recorded-trace replay (DESIGN.md §14): the production-traffic mode.
// A trace file is a versioned binary capture of a Stream's (or any
// Source's) op sequence; TraceSource replays it behind the same Source
// seam the synthetic generators use, looping when it runs out (sources
// never end). The format is fixed-width little-endian so the byte size
// determines the op count — no trailing length to keep in sync — and
// opens with a magic + version so a foreign or future file fails fast
// instead of replaying garbage:
//
//	offset  size  field
//	0       4     magic "RPT1"
//	4       4     version (uint32 LE, currently 1)
//	8       4     MLP (uint32 LE) — the recorded workload's MLP window
//	12      2     name length (uint16 LE)
//	14      n     name (UTF-8)
//	14+n    16·k  k ops, each (IWord uint64 LE, DWord uint64 LE)

// traceMagic opens every trace file; the trailing digit is the major
// format version, so even a pre-versioning reader fails on mismatch.
var traceMagic = [4]byte{'R', 'P', 'T', '1'}

// TraceVersion is the current trace format version.
const TraceVersion = 1

// maxTraceName bounds the embedded workload name.
const maxTraceName = 256

// TraceWriter streams ops into a trace file.
type TraceWriter struct {
	bw    *bufio.Writer
	count uint64
	err   error
}

// NewTraceWriter writes the header and returns a writer ready for ops.
// mlp must be positive — the replay consumer (cpu.Core) sizes its MLP
// window from it.
func NewTraceWriter(w io.Writer, name string, mlp int) (*TraceWriter, error) {
	if name == "" || len(name) > maxTraceName {
		return nil, fmt.Errorf("workload: trace name %q empty or over %d bytes", name, maxTraceName)
	}
	if mlp <= 0 {
		return nil, fmt.Errorf("workload: trace MLP %d must be positive", mlp)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [14]byte
	copy(hdr[0:4], traceMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], TraceVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(mlp))
	binary.LittleEndian.PutUint16(hdr[12:14], uint16(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	return &TraceWriter{bw: bw}, nil
}

// Write appends a batch of ops.
func (tw *TraceWriter) Write(ops []Op) error {
	if tw.err != nil {
		return tw.err
	}
	var rec [16]byte
	for i := range ops {
		binary.LittleEndian.PutUint64(rec[0:8], ops[i].IWord)
		binary.LittleEndian.PutUint64(rec[8:16], ops[i].DWord)
		if _, err := tw.bw.Write(rec[:]); err != nil {
			tw.err = err
			return err
		}
	}
	tw.count += uint64(len(ops))
	return nil
}

// Count reports ops written so far.
func (tw *TraceWriter) Count() uint64 { return tw.count }

// Finish flushes the writer. The caller owns closing the underlying
// file.
func (tw *TraceWriter) Finish() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.bw.Flush()
}

// ReadTrace parses a whole trace. Every malformed-input path returns an
// error naming what disagreed; a valid trace must hold at least one op.
func ReadTrace(r io.Reader) (name string, mlp int, ops []Op, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [14]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return "", 0, nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if [4]byte(hdr[0:4]) != traceMagic {
		return "", 0, nil, fmt.Errorf("workload: trace magic %q is not %q", hdr[0:4], traceMagic[:])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != TraceVersion {
		return "", 0, nil, fmt.Errorf("workload: trace version %d, this build reads %d", v, TraceVersion)
	}
	m := binary.LittleEndian.Uint32(hdr[8:12])
	if m == 0 || m > 1<<16 {
		return "", 0, nil, fmt.Errorf("workload: trace MLP %d outside (0, 65536]", m)
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[12:14]))
	if nameLen == 0 || nameLen > maxTraceName {
		return "", 0, nil, fmt.Errorf("workload: trace name length %d outside (0, %d]", nameLen, maxTraceName)
	}
	nb := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nb); err != nil {
		return "", 0, nil, fmt.Errorf("workload: trace name: %w", err)
	}
	var rec [16]byte
	for {
		_, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			break
		}
		if err != nil { // includes ErrUnexpectedEOF: a torn record
			return "", 0, nil, fmt.Errorf("workload: trace op %d: %w", len(ops), err)
		}
		op := Op{
			IWord: binary.LittleEndian.Uint64(rec[0:8]),
			DWord: binary.LittleEndian.Uint64(rec[8:16]),
		}
		if op.IWord != 0 && op.IWord&^1 == 0 {
			return "", 0, nil, fmt.Errorf("workload: trace op %d: jump flag without an ifetch line", len(ops))
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return "", 0, nil, fmt.Errorf("workload: trace %q holds no ops", nb)
	}
	return string(nb), int(m), ops, nil
}

// TraceSource replays a recorded trace as a Source, looping at the end.
type TraceSource struct {
	name      string
	spec      Spec // synthetic: carries Name and MLP only
	ops       []Op
	cursor    int
	offset    uint64 // sharing-group address offset
	generated uint64
}

var _ Source = (*TraceSource)(nil)

// NewTraceSource builds a replay source over ops (not copied; the
// caller must not mutate them). offset places the client's sharing
// group (GroupOffset); start is the initial replay cursor, so the
// cores of a multi-core trace client can stagger their way around the
// same recording instead of replaying it in lockstep.
func NewTraceSource(name string, mlp int, ops []Op, offset uint64, start int) *TraceSource {
	if len(ops) == 0 {
		panic("workload: trace source with no ops")
	}
	if mlp <= 0 {
		panic(fmt.Sprintf("workload: trace source MLP %d must be positive", mlp))
	}
	if start < 0 || start >= len(ops) {
		panic(fmt.Sprintf("workload: trace start cursor %d outside [0,%d)", start, len(ops)))
	}
	return &TraceSource{
		name:   name,
		spec:   Spec{Name: name, MLP: mlp},
		ops:    ops,
		offset: offset,
		cursor: start,
	}
}

// Spec returns a synthetic spec carrying the trace's name and MLP; the
// stochastic fields are zero (replay has no generator to parameterize).
func (t *TraceSource) Spec() Spec { return t.spec }

// Generated reports ops produced so far.
func (t *TraceSource) Generated() uint64 { return t.generated }

// NextBatch fills dst from the trace, wrapping at the end. The sequence
// is a pure function of the cursor, so it is trivially split-invariant.
func (t *TraceSource) NextBatch(dst []Op) int {
	n := len(dst)
	for len(dst) > 0 {
		c := copy(dst, t.ops[t.cursor:])
		applyOffset(dst[:c], t.offset)
		t.cursor += c
		if t.cursor == len(t.ops) {
			t.cursor = 0
		}
		dst = dst[c:]
	}
	t.generated += uint64(n)
	return n
}

// Footprint is nil: a trace declares no analytic footprint, so replay
// warms organically through WarmFunctional.
func (t *TraceSource) Footprint() []Region { return nil }

// AddrLimit is one past the trace's largest instruction-line or data
// address, plus the group offset.
func (t *TraceSource) AddrLimit() mem.Addr {
	var top uint64
	for _, op := range t.ops {
		if op.IWord != 0 {
			top = max(top, op.IWord&^1)
		}
		if op.DWord != 0 {
			top = max(top, op.DWord&opAddrMask)
		}
	}
	return mem.Addr(top + 1 + t.offset)
}

// Checkpoint walks the replay position; the trace's name, length and
// offset are shape.
func (t *TraceSource) Checkpoint(c *checkpoint.Codec) {
	c.Section("workload.Trace")
	checkpoint.Shape(c, "workload.Trace name", t.name, checkpoint.String)
	checkpoint.Shape(c, "workload.Trace length", len(t.ops), checkpoint.Int)
	checkpoint.Shape(c, "workload.Trace offset", t.offset, checkpoint.Uint)
	checkpoint.Int(c, &t.cursor)
	c.Check(t.cursor >= 0 && t.cursor < len(t.ops),
		"workload: checkpoint trace cursor %d outside [0,%d)", t.cursor, len(t.ops))
	checkpoint.Uint(c, &t.generated)
}
