package core

// Shared functional warm-up (DESIGN.md §8). The ops a functional
// warm-up consumes depend only on a system's sources (workload, core
// count, scale, seed) and the warm length, never on its hierarchy. A
// sweep that runs several systems on one workload can therefore
// generate them once: RecordWarmup runs the warm-up's round robin over
// fresh sources with no hierarchy and records every nonzero op word,
// and ReplayWarmup applies the recording to a system whose sources were
// built the same way, then restores their post-warm state. The live
// warm-up (WarmFunctional) and a replay share the round robin
// (forRounds) and the loop that applies ops to the hierarchy (warmOps),
// so a replayed system is bit-identical to one warmed inline
// (TestReplayMatchesInline).

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/workload"
)

// warmChunk is the per-core instruction granule of the functional warm-up
// round-robin: big enough to amortize generation, small enough that
// shared structures see realistic cross-core interleaving.
const warmChunk = 2000

// forRounds drives the functional warm-up's round robin: round after
// round, each of the cores in turn takes its next warmChunk ops, fewer
// in the last round, until every core has had instrPerCore.
func forRounds(instrPerCore, cores int, f func(c, n int)) {
	for done := 0; done < instrPerCore; done += warmChunk {
		n := min(warmChunk, instrPerCore-done)
		for c := 0; c < cores; c++ {
			f(c, n)
		}
	}
}

// warmOps applies core c's ops to the hierarchy with no timing: an
// instruction fetch for every nonzero IWord, then a data access for
// every nonzero DWord.
func (s *System) warmOps(c int, ops []workload.Op) {
	for i := range ops {
		op := &ops[i]
		if op.IWord != 0 {
			s.hier.ifetch(c, op.NewIFetchLine(), op.Jump(), false)
		}
		if op.DWord != 0 {
			s.hier.data(c, op.Addr(), op.Write(), op.RWShared(), op.NonTemporal(), false)
		}
	}
}

// WarmTrace is a recorded functional warm-up: the op words of every
// core-round, and the sources' state after them. It is immutable once
// recorded, so any number of systems may replay it at once.
//
// Each core-round is a run of records closed by a zero byte. A record
// is one word: a flag byte, then the zigzag varint of the word's line
// address minus a reference line of the same core, in lines. An
// instruction word's flag is 1, or 3 when it jumps, and its reference is
// the core's previous instruction line. A data word's flag is its
// DWord's top byte (the opMem bit and the access flags; never 0, and
// even) with bits 1-2 naming which of the core's dataSlots recent data
// lines is the reference; the slot then takes the new line and moves to
// the front. The encoder picks the nearest slot, or the least recent
// one for a line farther than farLines from all of them, so each slot
// tends to follow one region of the address map. A data word keeps only
// its line: the functional access path reads no byte offset within one.
// No record spans two chunks.
type WarmTrace struct {
	cores, instrPerCore int
	chunks              [][]byte
	words               uint64
	sources             []byte // the sources' post-warm Checkpoint walk
}

const (
	// Records fill chunks of traceChunkBytes; a record takes at most
	// maxRecordBytes, a flag byte and a 64-bit varint.
	traceChunkBytes = 256 << 10
	maxRecordBytes  = 1 + binary.MaxVarintLen64
	// An instruction word's flag sets ifetchFlag, and jumpFlag when it
	// jumps; a data word's names its reference slot at slotShift.
	ifetchFlag = 1
	jumpFlag   = 2
	slotShift  = 1
	// Each core keeps dataSlots recent data lines as references; a line
	// more than farLines from all of them replaces the least recent.
	dataSlots = 4
	farLines  = 1 << 16
)

// lineState is one core's delta-coding references: its previous
// instruction line, and its recent data lines, most recent first.
type lineState struct {
	iline  uint64
	dlines [dataSlots]uint64
}

// useSlot makes slot k's line line and moves it to the front.
func (st *lineState) useSlot(k int, line uint64) {
	for ; k > 0; k-- {
		st.dlines[k] = st.dlines[k-1]
	}
	st.dlines[0] = line
}

// zigzag maps a signed line delta to the varint-friendly unsigned form.
func zigzag(d int64) uint64 { return uint64(d<<1 ^ d>>63) }

// RecordWarmup generates the functional warm-up of instrPerCore
// instructions per core from sources, fresh ones built as the systems
// that will replay the recording build theirs, and records it. It
// touches no hierarchy, and leaves the sources in their post-warm state.
func RecordWarmup(sources []workload.Source, instrPerCore int) *WarmTrace {
	t := &WarmTrace{cores: len(sources), instrPerCore: instrPerCore}
	w := traceWriter{t: t, lines: make([]lineState, len(sources))}
	buf := make([]workload.Op, warmChunk)
	forRounds(instrPerCore, t.cores, func(c, n int) {
		sources[c].NextBatch(buf[:n])
		w.round(c, buf[:n])
	})
	w.flush()

	var img bytes.Buffer
	cw := checkpoint.NewWriter(&img)
	checkpointAll(checkpoint.NewEncoder(cw), "core.System streams", sources)
	if err := cw.Finish(); err != nil {
		panic(fmt.Sprintf("core: recording the warm-up's sources: %v", err))
	}
	t.sources = img.Bytes()
	return t
}

// traceWriter encodes a WarmTrace round by round.
type traceWriter struct {
	t     *WarmTrace
	buf   []byte      // the chunk being filled
	lines []lineState // per core
}

// round records core c's ops of one round and closes the round.
func (w *traceWriter) round(c int, ops []workload.Op) {
	st := &w.lines[c]
	for i := range ops {
		if iw := ops[i].IWord; iw != 0 {
			line := iw &^ 1
			w.word(byte(ifetchFlag|iw<<1&jumpFlag), int64(line-st.iline)>>6)
			st.iline = line
		}
		if dw := ops[i].DWord; dw != 0 {
			line := uint64(ops[i].Addr().Line())
			k, dist := 0, lineDist(line, st.dlines[0])
			// A delta within ±63 lines is one varint byte: no slot beats it.
			for j := 1; j < dataSlots && dist > 63; j++ {
				if d := lineDist(line, st.dlines[j]); d < dist {
					k, dist = j, d
				}
			}
			if dist > farLines {
				k = dataSlots - 1
			}
			w.word(byte(dw>>56)|byte(k)<<slotShift, int64(line-st.dlines[k])>>6)
			st.useSlot(k, line)
		}
	}
	w.room()
	w.buf = append(w.buf, 0)
}

// lineDist is the distance between two line addresses, in lines.
func lineDist(a, b uint64) uint64 {
	d := int64(a-b) >> 6
	return uint64(max(d, -d))
}

// word records one word: its flag and its delta in lines.
func (w *traceWriter) word(flag byte, delta int64) {
	w.room()
	if zz := zigzag(delta); zz < 0x80 {
		w.buf = append(w.buf, flag, byte(zz))
	} else {
		w.buf = binary.AppendUvarint(append(w.buf, flag), zz)
	}
	w.t.words++
}

// room starts a new chunk when the current one cannot take a whole
// record.
func (w *traceWriter) room() {
	if cap(w.buf)-len(w.buf) < maxRecordBytes {
		w.flush()
		w.buf = make([]byte, 0, traceChunkBytes)
	}
}

// flush files the current chunk.
func (w *traceWriter) flush() {
	if len(w.buf) > 0 {
		w.t.chunks = append(w.t.chunks, w.buf)
	}
}

// Words reports how many op words the trace holds.
func (t *WarmTrace) Words() uint64 { return t.words }

// Bytes reports the trace's encoded size: its records and the sources'
// post-warm state.
func (t *WarmTrace) Bytes() int {
	n := len(t.sources)
	for _, ch := range t.chunks {
		n += len(ch)
	}
	return n
}

// traceReader decodes a WarmTrace round by round.
type traceReader struct {
	t     *WarmTrace
	chunk int
	pos   int
	lines []lineState // per core, as traceWriter's
}

// next decodes core c's next round into dst, packing a data word into the
// op of the instruction word before it, and returns the ops decoded.
// The round's original ops number no fewer, so len(dst) of warmChunk
// always suffices.
func (r *traceReader) next(c int, dst []workload.Op) []workload.Op {
	buf, pos := r.t.chunks[r.chunk], r.pos
	st := &r.lines[c]
	n := 0
	for {
		if pos == len(buf) {
			r.chunk++
			buf, pos = r.t.chunks[r.chunk], 0
		}
		flag := buf[pos]
		if flag == 0 {
			break
		}
		zz, k := uint64(buf[pos+1]), 1
		if zz >= 0x80 {
			zz, k = binary.Uvarint(buf[pos+1:])
		}
		pos += 1 + k
		delta := uint64(int64(zz>>1)^-int64(zz&1)) << 6
		if flag&ifetchFlag != 0 {
			st.iline += delta
			dst[n] = workload.Op{IWord: st.iline | uint64(flag&jumpFlag)>>1}
			n++
			continue
		}
		slot := int(flag>>slotShift) & (dataSlots - 1)
		line := st.dlines[slot] + delta
		st.useSlot(slot, line)
		dw := uint64(flag&^((dataSlots-1)<<slotShift))<<56 | line
		if n > 0 && dst[n-1].DWord == 0 {
			dst[n-1].DWord = dw
		} else {
			dst[n] = workload.Op{DWord: dw}
			n++
		}
	}
	r.pos = pos + 1
	return dst[:n]
}

// ReplayWarmup brings the system to the state WarmFunctional would for
// the recorded length, from t: it applies the recorded words through the
// same round robin and access loop, then restores the sources' recorded
// post-warm state. The system must be freshly built over sources
// constructed as the recording's were (the caller keys traces by the
// sources' inputs) and Prewarmed, not started.
func (s *System) ReplayWarmup(t *WarmTrace) {
	if s.started {
		panic("core: warm-up after timing start")
	}
	if t.cores != s.cfg.Cores {
		panic(fmt.Sprintf("core: a warm-up trace of %d cores replayed into %d", t.cores, s.cfg.Cores))
	}
	r := traceReader{t: t, lines: make([]lineState, t.cores)}
	buf := make([]workload.Op, warmChunk)
	forRounds(t.instrPerCore, t.cores, func(c, _ int) {
		s.warmOps(c, r.next(c, buf))
	})

	rd := checkpoint.NewReader(bytes.NewReader(t.sources))
	checkpointAll(checkpoint.NewDecoder(rd), "core.System streams", s.sources)
	if err := rd.Finish(); err != nil {
		panic(fmt.Sprintf("core: restoring the sources after a warm-up replay: %v", err))
	}
}
