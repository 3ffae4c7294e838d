package harness

import (
	"runtime"

	"repro/internal/fleet"
)

// workers resolves the scale's fan-out bound: at most Workers goroutines,
// never more than useful, and serial when unset.
func (r *Runner) workers(n int) int {
	w := r.sc.Workers
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}

// DefaultWorkers is the -workers default: one per host core.
func DefaultWorkers() int { return runtime.NumCPU() }

// forEach runs f(0..n-1) across the runner's worker pool and returns the
// lowest-index error. Results must be written to index i of a caller-owned
// slice so output order never depends on scheduling; combined with the
// runner's single-flight memoization this makes every figure driver
// produce identical rows at any worker count.
func (r *Runner) forEach(n int, f func(i int) error) error {
	return fleet.ForEach(r.workers(n), n, f)
}

// prefetchPairs warms the pair memo across the worker pool so a driver's
// subsequent serial table build hits only cached results. Duplicate keys
// are collapsed by the single-flight cells.
func (r *Runner) prefetchPairs(keys []pairKey) error {
	return r.forEach(len(keys), func(i int) error {
		k := keys[i]
		_, err := r.RunPair(k.host, k.ext, k.system, k.target)
		return err
	})
}
