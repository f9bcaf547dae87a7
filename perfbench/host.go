package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// hostCounts reads the host-side half of counts: Go heap and GC totals
// and the process's page faults and CPU time.
func hostCounts() counts {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counts{
		AllocB:    samples[0].Value.Uint64(),
		GCCycles:  samples[1].Value.Uint64(),
		GCCPU:     samples[2].Value.Float64(),
		LiveHeapB: samples[3].Value.Uint64(),
		MinFlt:    ru.Minflt,
		UserCPU:   tvSeconds(ru.Utime),
		SysCPU:    tvSeconds(ru.Stime),
	}
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// releaseMemory returns the heap of a dropped system to the OS, so the
// next op starts from the same resident set.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS sets the kernel's resident-set high-water mark (VmHWM) to
// the current resident set, so peakRSSMB covers only what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) != 2 || string(f[1]) != "kB" {
				break
			}
			kb, err := strconv.ParseUint(string(f[0]), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}

// Host-noise canaries: fixed work that does not depend on the program, so
// a slow run on a slow host shows in them and a slow program does not.
const (
	cpuCanaryIters = 50_000_000
	// memCanaryBytes exceeds the 300 MiB L3 of the reference host, so the
	// chase measures DRAM under whatever contention the host has.
	memCanaryBytes = 384 << 20
	memCanarySteps = 1 << 21
	lineWords      = 8 // uint64 words per 64-byte line
)

// canarySink keeps the canary loops from being optimised away.
var canarySink uint64

// cpuCanary times a fixed xorshift loop, in ns per iteration.
func cpuCanary() float64 {
	x := uint64(88172645463325252)
	t := time.Now()
	for i := 0; i < cpuCanaryIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ns := float64(time.Since(t).Nanoseconds()) / cpuCanaryIters
	canarySink += x
	return ns
}

// memCanary times a dependent pointer chase over memCanaryBytes, in ns per
// load. The chain visits lines in the order of a full-period LCG over the
// next power of two, skipping indices past the buffer, so no stride
// repeats for a prefetcher to learn; each line stores its successor's
// index, so every load depends on the one before.
func memCanary() float64 {
	const lines = memCanaryBytes / 64
	buf := make([]uint64, lines*lineWords)
	mask := uint64(1)
	for mask < lines {
		mask <<= 1
	}
	mask--
	next := func(x uint64) uint64 {
		for {
			x = (x*6364136223846793005 + 1442695040888963407) & mask
			if x < lines {
				return x
			}
		}
	}
	cur := uint64(0)
	for i := 0; i < memCanarySteps; i++ {
		n := next(cur)
		buf[cur*lineWords] = n
		cur = n
	}
	buf[cur*lineWords] = 0
	t := time.Now()
	p := uint64(0)
	for i := 0; i < memCanarySteps; i++ {
		p = buf[p*lineWords]
	}
	ns := float64(time.Since(t).Nanoseconds()) / memCanarySteps
	canarySink += p
	buf = nil
	releaseMemory()
	return ns
}

// canaries holds one reading of both canaries.
type canaries struct{ CPU, Mem float64 }

func readCanaries() canaries { return canaries{CPU: cpuCanary(), Mem: memCanary()} }
