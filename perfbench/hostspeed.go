package main

import (
	"runtime"
	"sync"
	"syscall"
)

// Host-speed scaling. On a shared host, identical campaigns run a
// minute apart differ by up to ±20% in wall and CPU time alike, because
// co-tenants share the cores and caches. Every timed span is therefore
// bracketed by two runs of a fixed calibration kernel, the benchmark's
// own code that no program change can move, and reported as
//
//	scaled = measured × calibRefSeconds / mean(calibration before, after)
//
// A program change moves the scaled figure by the share it moves the
// measured one; a slower host stretches span and kernel alike, and the
// two cancel. README.md ("Host speed") gives the measurements.

// calibRefSeconds is the kernel's per-thread CPU time on the reference
// host: the 2-vCPU "Intel(R) Xeon(R) Processor" VM, go1.24.0, nproc = 2,
// described in README.md. It only sets the unit; scaled figures compare
// across runs whatever its value.
const calibRefSeconds = 0.05

const (
	calibWords = 1 << 18 // 2 MiB of uint64 per thread
	calibSteps = 4_000_000
)

var (
	calibMu   sync.Mutex
	calibBufs [][]uint64
	calibSink []uint64
)

// calibrate runs the calibration kernel on nproc locked threads at once,
// so every core the campaigns use is measured under the same load, and
// returns the mean per-thread CPU seconds.
func calibrate(nproc int) float64 {
	calibMu.Lock()
	defer calibMu.Unlock()
	for len(calibBufs) < nproc {
		calibBufs = append(calibBufs, make([]uint64, calibWords))
		calibSink = append(calibSink, 0)
	}
	times := make([]float64, nproc)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPUSeconds()
			calibSink[w] += calibKernel(calibBufs[w], uint64(w)+1)
			times[w] = threadCPUSeconds() - t0
		}(w)
	}
	wg.Wait()
	sum := 0.0
	for _, t := range times {
		sum += t
	}
	return sum / float64(nproc)
}

// calibKernel does a fixed amount of work on buf: calibSteps
// pseudo-random read-modify-writes chosen by a 64-bit LCG, with a
// data-dependent branch on each — branchy integer work over a working
// set past L1 and L2, like the simulator's.
func calibKernel(buf []uint64, seed uint64) uint64 {
	x := seed
	for i := 0; i < calibSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 33) & (calibWords - 1)
		if v := buf[j]; v&1 == 0 {
			buf[j] = v + x
		} else {
			buf[j] = v ^ x>>7
		}
	}
	return buf[x>>33&(calibWords-1)]
}

// threadCPUSeconds returns the calling thread's user+system CPU time.
func threadCPUSeconds() float64 {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostScale is the factor that scales a span measured between two
// calibrations to the reference host speed.
func hostScale(before, after float64) float64 {
	return calibRefSeconds / ((before + after) / 2)
}
