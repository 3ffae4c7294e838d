package main

import "time"

// FROZEN: every calibrated second this benchmark has ever reported is a
// multiple of this kernel's running time. Editing it (step count, mixing
// function, the two-run rule) silently rescales every committed number, so
// it is never edited after the PR that introduced it.
//
// The kernel is pure ALU with a serial dependency chain and no memory
// traffic, so it tracks the core's speed state (the sandbox flips between
// two states about 1.29x apart that persist for seconds) but not
// memory-side disturbance, which only ever adds time and is handled by the
// estimator's order statistic instead.
const (
	calibSteps = 1_000_000
	// calibNominal is the kernel's running time on the undisturbed
	// reference core (2.1 GHz Xeon, fast state), which makes one calibrated
	// second read about one wall second there.
	calibNominal = 1.5e-3
)

// calibKernel returns the generator's final state, which callers must use
// so that the loop cannot be removed.
func calibKernel() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// calibrate returns the kernel's running time in seconds: the faster of
// two back-to-back executions, so a single preemption cannot inflate it.
func calibrate() float64 {
	best := 0.0
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if calibKernel() == 0 {
			panic("calib: xorshift64 reached its fixed point")
		}
		if d := time.Since(t0).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// calibrated converts a wall-clock duration into calibrated seconds using
// the kernel timings taken immediately before and after it.
func calibrated(wall, calibBefore, calibAfter float64) float64 {
	return wall * calibNominal / ((calibBefore + calibAfter) / 2)
}
