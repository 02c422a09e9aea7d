package perf

import (
	"slices"
	"sync"
	"time"
)

// Host speed calibration. The benchmark's reference host is a shared
// 2-vCPU VM whose speed drifts by tens of percent over minutes, and by up
// to 2x in bursts; no number of repetitions makes raw wall time steady
// across invocations there. So the end-to-end host times are reported in
// reference seconds: every timed repetition is bracketed by a fixed,
// repository-independent calibration kernel, and its wall time is scaled
// by calNominal / (the kernel's median time around it). A change to the
// simulator moves the scaled time exactly as it moves the raw one; a
// machine that is slower for everything moves neither. The raw wall time
// and the kernel time are reported as layer metrics.

// calNominal is the calibration kernel's median time on the reference host.
const calNominal = 45 * time.Millisecond

// calRuns is how many kernel runs bracket a repetition on each side.
const calRuns = 3

// calibrate times calRuns runs of the kernel on each of threads
// goroutines at once — as many as the workload's kernel workers, so the
// calibration loads the machine the way the repetition does — and returns
// their wall times in seconds. The kernel allocates nothing while timed,
// so the garbage collector's state, whatever the repetition before left,
// does not change its speed. threads == 0 returns the nominal time
// without running anything.
func calibrate(threads int) []float64 {
	if threads == 0 {
		return []float64{calNominal.Seconds()}
	}
	xs := make([][]uint32, threads)
	ms := make([]map[uint32]uint32, threads)
	for t := range xs {
		xs[t] = make([]uint32, 1<<15)
		ms[t] = make(map[uint32]uint32, 1<<14)
	}
	out := make([]float64, calRuns)
	for i := range out {
		start := time.Now()
		var wg sync.WaitGroup
		for t := range xs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calibrationKernel(xs[t], ms[t])
			}()
		}
		wg.Wait()
		out[i] = time.Since(start).Seconds()
	}
	return out
}

// calibrationKernel does a fixed amount of the kind of work the simulator
// spends its time on — hashing into a map, filling and sorting a slice —
// using only the standard library.
func calibrationKernel(xs []uint32, m map[uint32]uint32) {
	for round := 0; round < calRounds; round++ {
		x := uint32(round + 1)
		for i := range xs {
			x = x*1664525 + 1013904223
			m[x&0x3fff] += x
			xs[i] = x
		}
		slices.Sort(xs)
	}
}

// calRounds sizes the kernel to about calNominal on the reference host.
const calRounds = 12

// toReference scales a wall time measured while the calibration kernel
// took calib seconds to reference seconds.
func toReference(wall time.Duration, calib float64) float64 {
	return wall.Seconds() * calNominal.Seconds() / calib
}
