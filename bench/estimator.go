package main

import "sort"

// The estimator turns R noisy samples of the same deterministic work into
// one cost. Disturbance on a shared host only ever adds time, so the truth
// is at the bottom of the distribution; but calibration error is
// two-sided — a kernel run that was disturbed while its slice was not
// deflates the sample below the truth — so the very bottom is not trusted
// either. The estimate is the lower-quartile order statistic, and never
// shallower than the second-smallest: it survives three quarters of the
// samples being disturbed, and one deflated sample in every four. (For up
// to eight samples it is the second-smallest. The bare second-smallest at
// larger R repeats as well on 10 ms slices but two to four times worse on
// 0.2-1 s ones, where it rides the calibration tail; see README.md.)

// estimate returns the k-th smallest value of xs, k = max(2, ceil(n/4)),
// or the smallest when there is only one. It does not modify xs.
func estimate(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 3) / 4
	if k < 2 {
		k = 2
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}

// ledger holds calibrated samples indexed [slice][round]: slice i does
// bit-identical work in every round, so its column is R samples of one
// cost.
type ledger struct {
	samples [][]float64
}

// add records one round's sample for slice i.
func (l *ledger) add(i int, cs float64) {
	for len(l.samples) <= i {
		l.samples = append(l.samples, nil)
	}
	l.samples[i] = append(l.samples[i], cs)
}

// sliceCost is the estimated cost of slice i.
func (l *ledger) sliceCost(i int) float64 { return estimate(l.samples[i]) }

// roundCost is the estimated cost of one round: the sum of the per-slice
// estimates. Summing estimates, rather than estimating the per-round sums,
// is what makes short slices tight — each slice only needs a quarter of its
// R samples to have been undisturbed, not a quarter of whole rounds.
func (l *ledger) roundCost() float64 {
	sum := 0.0
	for i := range l.samples {
		sum += l.sliceCost(i)
	}
	return sum
}

// slowdownP50 is the median over all samples of sample ÷ its slice's
// estimate: how much slower the typical moment was than the chosen one.
func (l *ledger) slowdownP50() float64 {
	var ratios []float64
	for i, col := range l.samples {
		c := l.sliceCost(i)
		for _, s := range col {
			ratios = append(ratios, s/c)
		}
	}
	return median(ratios)
}

// median returns the median of xs (0 for none). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method, matching Python's statistics.quantiles(xs, n=4), which is what
// the acceptance rule for this benchmark is written in. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		switch {
		case pos <= 0:
			return s[0] + pos*(s[1]-s[0])
		case pos >= float64(len(s)-1):
			n := len(s) - 1
			return s[n] + (pos-float64(n))*(s[n]-s[n-1])
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.75)
}
