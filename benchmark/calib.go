package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is a shared two-core VM whose effective CPU speed
// drifts by a quarter for minutes at a time (neighbours the hypervisor does
// not report as steal time): the daemons' CPU seconds per tuple, and with
// them every throughput and queueing figure of a CPU-saturated run, drift
// along. The benchmark therefore measures that speed while it measures the
// daemons — a fixed burst of integer and memory work, timed on the thread's
// own CPU clock so that waiting for a core does not count — and reports
// CPU-bound quantities in reference seconds: seconds of a CPU that runs the
// burst in calibRefBurst. A/A runs of the seed commit: interquartile spread
// of direct_saturate's tuples_per_s 8 % as measured, 2.5 % calibrated.

// calibRefBurst is the burst's CPU time on the reference host when quiet.
const calibRefBurst = 1030 * time.Microsecond

// calibEvery spaces the bursts of a measured phase: about 1 % of one core.
const calibEvery = 100 * time.Millisecond

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU reads the calling thread's CPU clock; the caller must be locked
// to its thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error()) // cannot fail on Linux ≥ 2.6.12
	}
	return time.Duration(ts.Nano())
}

// calibBuf is the working set of a burst: 256 KiB, about an L2 cache.
var calibBuf = make([]uint64, 32<<10)

// calibBurst does the fixed work once and returns the thread CPU time it
// took. Not safe for concurrent use.
func calibBurst() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	x := uint64(88172645463325252)
	for r := 0; r < 16; r++ {
		for i := range calibBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			calibBuf[i] += x
		}
	}
	return threadCPU() - start
}

// slowdown is how much longer than on the quiet reference host the CPU
// takes right now: the mean of n back-to-back bursts over calibRefBurst.
func slowdown(n int) float64 {
	var total time.Duration
	for i := 0; i < n; i++ {
		total += calibBurst()
	}
	return float64(total) / float64(n) / float64(calibRefBurst)
}

// slowdownDuring is slowdown over one burst every calibEvery until stop is
// closed.
func slowdownDuring(stop <-chan struct{}) float64 {
	var total float64
	n := 0
	tick := time.NewTicker(calibEvery)
	defer tick.Stop()
	for {
		total += slowdown(1)
		n++
		select {
		case <-stop:
			return total / float64(n)
		case <-tick.C:
		}
	}
}
