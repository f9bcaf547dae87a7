package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/robust"
	"repro/internal/workload"
)

// Small companions: the atomic output writer, the record-trace recorder
// and the mask-wall-ms output normalizer.

// writeFileAtomic streams write's output into a same-directory temp file
// and, only once write succeeds, commits it to path with mode 0644
// (robust.CommitFile: fsync + rename + directory fsync). A crash or a
// failed write therefore never leaves a truncated file under the real
// name, and the output never has to fit in memory.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := robust.CommitFile(tmp.Name(), path); err != nil {
		return err
	}
	committed = true
	return nil
}

// recordBatch bounds the per-call generation buffer so a large -ops
// streams through a fixed-size chunk instead of one giant allocation.
const recordBatch = 1 << 16

// runRecordTrace generates c.ops ops of the named workload preset and
// streams them to c.out as an RPT1 trace file (atomic: temp + rename).
// The stream parameters are fixed and documented on the flag — core 0
// of a 1-core stream, scale 16, seed 1 — so a trace is reproducible from
// its flag values and the recorded content hash is stable across hosts.
func runRecordTrace(c *cliConfig) int {
	spec, err := experiments.WorkloadByName(c.workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "record-trace: %v\n", err)
		return 2
	}
	err = writeFileAtomic(c.out, func(w io.Writer) error {
		tw, err := workload.NewTraceWriter(w, spec.Name, spec.MLP)
		if err != nil {
			return err
		}
		st := workload.NewStream(spec, 0, 1, 16, 1)
		ops := make([]workload.Op, recordBatch)
		for left := c.ops; left > 0; {
			n := min(left, recordBatch)
			st.NextBatch(ops[:n])
			if err := tw.Write(ops[:n]); err != nil {
				return err
			}
			left -= n
		}
		return tw.Finish()
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "record-trace: %v\n", err)
		return 1
	}
	fi, err := os.Stat(c.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "record-trace: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "[record-trace: %d %s ops -> %s (%d bytes)]\n", c.ops, spec.Name, c.out, fi.Size())
	return 0
}

// runMaskWallMS streams stdin to stdout with every wall_ms field zeroed
// (experiments.MaskWallMS). CI's byte-identity checks pipe grid outputs
// through this instead of each maintaining its own sed, so the masking
// rule lives in exactly one tested place.
func runMaskWallMS(r io.Reader, w io.Writer) int {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			if _, werr := bw.WriteString(experiments.MaskWallMS(line)); werr != nil {
				fmt.Fprintf(os.Stderr, "mask-wall-ms: %v\n", werr)
				return 1
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mask-wall-ms: %v\n", err)
			return 1
		}
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "mask-wall-ms: %v\n", err)
		return 1
	}
	return 0
}
