package main

import (
	"math"
	"testing"
)

// synthetic drives the ledger with the noise the sandbox shows: a core that
// flips between two speed states 1.29x apart and stays in each for 1-15 s,
// one-sided memory-side disturbance of 0-30 % on most samples, and an
// occasional calibration that was itself disturbed and reads 1.5-2.5x.
type synthetic struct {
	r        rng
	clock    float64
	slow     bool
	nextFlip float64
}

func (s *synthetic) uniform() float64 { return float64(s.r.next()>>11) / (1 << 53) }

func (s *synthetic) speed() float64 {
	if s.slow {
		return 1.29
	}
	return 1
}

func (s *synthetic) advance(dt float64) {
	s.clock += dt
	for s.clock >= s.nextFlip {
		s.slow = !s.slow
		s.nextFlip += 1 + 14*s.uniform()
	}
}

func (s *synthetic) calibrate() float64 {
	c := calibNominal * s.speed()
	if s.uniform() < 0.03 {
		c *= 1.5 + s.uniform()
	}
	s.advance(2 * c)
	return c
}

func TestEstimatorRecoversTrueCost(t *testing.T) {
	const slices, rounds = 60, 15
	for seed := int64(1); seed <= 5; seed++ {
		s := &synthetic{r: newRNG(seed, 99)}
		s.nextFlip = 1 + 14*s.uniform()
		truth := make([]float64, slices)
		total := 0.0
		for i := range truth {
			truth[i] = 0.002 + 0.018*s.uniform() // 2-20 ms slices
			total += truth[i]
		}
		var l ledger
		rawTotals := make([]float64, rounds)
		for r := 0; r < rounds; r++ {
			before := s.calibrate()
			for i := range truth {
				wall := truth[i] * s.speed()
				if s.uniform() < 0.6 {
					wall *= 1 + 0.3*s.uniform()
				}
				s.advance(wall)
				after := s.calibrate()
				l.add(i, calibrated(wall, before, after))
				rawTotals[r] += wall
				before = after
			}
			s.advance(3) // between rounds; long enough that the run spans several speed flips
		}
		if got := l.roundCost(); math.Abs(got-total)/total > 0.02 {
			t.Errorf("seed %d: estimator gives %.5f for a true round cost of %.5f (%.1f %% off, want within 2 %%)",
				seed, got, total, 100*(got-total)/total)
		}
		mean := 0.0
		for _, v := range rawTotals {
			mean += v / rounds
		}
		if miss := (mean - total) / total; miss < 0.15 {
			t.Errorf("seed %d: raw per-round totals miss by only %.1f %%: the synthetic noise is too tame to test anything", seed, 100*miss)
		}
	}
}

func TestEstimateOrderStatistic(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"one sample", []float64{3}, 3},
		{"second-smallest, not the minimum", []float64{5, 1, 3, 2, 4}, 2},
		{"one deflated sample is ignored", []float64{10, 10, 6, 10, 10, 10, 10, 10}, 10},
		{"eight samples: still the second", []float64{8, 7, 6, 5, 4, 3, 2, 1}, 2},
		{"twelve samples: the third", []float64{12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 3},
		{"sixteen samples: the fourth", []float64{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 4},
		{"disturbance above the quartile does not move it", []float64{1, 1, 1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, 1},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := estimate(c.xs); got != c.want {
			t.Errorf("%s: estimate(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("%s: estimate reordered its input", c.name)
			}
		}
	}
}

// The acceptance rule is written in Python's statistics.quantiles(n=4);
// these are its values.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 4, 8, 16, 32}, 1.75, 20},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	var nilTracer *tracer
	nilTracer.in("x", func() {}) // must not panic
	tr := newTracer("w")
	outer := tr.begin("outer")
	tr.in("inner", func() {})
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].parent != 0 || tr.spans[0].parent != -1 {
		t.Fatalf("spans = %+v, want outer and inner under it", tr.spans)
	}
	if len(tr.stack) != 0 {
		t.Fatalf("stack not unwound: %v", tr.stack)
	}
}
