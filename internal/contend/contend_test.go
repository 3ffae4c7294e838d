package contend

import (
	"math"
	"reflect"
	"testing"
)

// baseline builds a sample vector of n servers at CPI 1.0 / MPKI 2.0 and
// overrides server tgt with the given CPI and MPKI.
func baseline(n, tgt int, cpi, mpki float64) []Sample {
	s := make([]Sample, n)
	for i := range s {
		s[i] = Sample{CPI: 1.0, MPKI: 2.0, MissRate: 100, Util: 0.5, Valid: true}
	}
	s[tgt] = Sample{CPI: cpi, MPKI: mpki, MissRate: 500, Util: 0.5, Valid: true}
	return s
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Window != 4 || c.Quantile != 0.75 || c.Enter != 1.25 || c.Exit != 1.05 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.Cooldown != 2 || c.MinSamples != 4 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// An inverted band clamps Exit to Enter rather than inverting.
	c = Config{Enter: 1.1, Exit: 1.5}.WithDefaults()
	if c.Exit > c.Enter {
		t.Fatalf("exit %v above enter %v", c.Exit, c.Enter)
	}
}

func TestQuantileOf(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if got := quantileOf(vals, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantileOf(vals, 1.0); got != 4 {
		t.Fatalf("max = %v, want 4", got)
	}
	if got := quantileOf(vals, 0); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if got := quantileOf(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
}

func TestDetectorFlagsOutlier(t *testing.T) {
	const n, tgt = 10, 3
	d := New(n, Config{})
	var verdicts []bool
	for e := 0; e < 8; e++ {
		verdicts = d.Observe(baseline(n, tgt, 3.0, 10.0))
	}
	for i, v := range verdicts {
		if (i == tgt) != v {
			t.Fatalf("server %d verdict %v (want contended only for %d)", i, v, tgt)
		}
	}
	st := d.States()[tgt]
	if st.Score < 2.9 || st.Score > 3.1 {
		t.Fatalf("outlier score %v, want ≈3.0", st.Score)
	}
	if enter, exit := d.Thresholds(); !(exit < enter) || enter == 0 {
		t.Fatalf("thresholds enter=%v exit=%v", enter, exit)
	}
}

func TestDetectorNeedsWarmWindow(t *testing.T) {
	const n, tgt = 10, 0
	d := New(n, Config{Window: 4, MinSamples: 4})
	for e := 0; e < 3; e++ {
		v := d.Observe(baseline(n, tgt, 5.0, 10.0))
		if v[tgt] {
			t.Fatalf("flagged at epoch %d, before MinSamples", e+1)
		}
	}
	if v := d.Observe(baseline(n, tgt, 5.0, 10.0)); !v[tgt] {
		t.Fatal("not flagged once the window warmed")
	}
}

func TestMPKIGateBlocksComputeBoundSpikes(t *testing.T) {
	const n, tgt = 10, 2
	d := New(n, Config{})
	// High CPI but below-median MPKI: not memory-bound, never flagged.
	for e := 0; e < 10; e++ {
		if v := d.Observe(baseline(n, tgt, 5.0, 0.1)); v[tgt] {
			t.Fatalf("compute-bound spike flagged at epoch %d", e+1)
		}
	}
}

// TestHysteresisNoFlap drives a server into the contended set, then
// oscillates its CPI strictly inside the enter/exit band: the verdict must
// not change, in either direction.
func TestHysteresisNoFlap(t *testing.T) {
	const n, tgt = 10, 5
	d := New(n, Config{Window: 2, MinSamples: 2, Cooldown: 1})
	// Warm up and enter: baseline servers pin the 0.75-quantile at 1.0, so
	// enter = 1.25 and exit = 1.05.
	for e := 0; e < 6; e++ {
		d.Observe(baseline(n, tgt, 2.0, 10.0))
	}
	if !d.States()[tgt].Contended {
		t.Fatal("target never entered the contended set")
	}
	flips := d.States()[tgt].FlippedAt
	// Oscillate inside the band (window means stay in (1.05, 1.25)).
	for e := 0; e < 20; e++ {
		cpi := 1.10
		if e%2 == 0 {
			cpi = 1.20
		}
		v := d.Observe(baseline(n, tgt, cpi, 10.0))
		if !v[tgt] {
			t.Fatalf("in-band oscillation dropped the verdict at epoch %d", d.Epoch())
		}
	}
	if got := d.States()[tgt].FlippedAt; got != flips {
		t.Fatalf("verdict flipped inside the band (FlippedAt %d → %d)", flips, got)
	}
	// Drop below exit: the verdict releases...
	for e := 0; e < 6; e++ {
		d.Observe(baseline(n, tgt, 0.9, 10.0))
	}
	if d.States()[tgt].Contended {
		t.Fatal("target never exited after dropping below the exit band")
	}
	flips = d.States()[tgt].FlippedAt
	// ...and in-band oscillation must not re-enter either.
	for e := 0; e < 20; e++ {
		cpi := 1.10
		if e%2 == 0 {
			cpi = 1.20
		}
		if v := d.Observe(baseline(n, tgt, cpi, 10.0)); v[tgt] {
			t.Fatalf("in-band oscillation re-entered at epoch %d", d.Epoch())
		}
	}
	if got := d.States()[tgt].FlippedAt; got != flips {
		t.Fatalf("verdict flipped inside the band (FlippedAt %d → %d)", flips, got)
	}
}

// TestCooldownPinsVerdict: right after a flip, even a score past the
// opposite threshold cannot flip the verdict back until the cooldown runs.
func TestCooldownPinsVerdict(t *testing.T) {
	const n, tgt = 10, 1
	d := New(n, Config{Window: 1, MinSamples: 1, Cooldown: 3})
	d.Observe(baseline(n, tgt, 5.0, 10.0)) // enters, cooldown = 3
	if !d.States()[tgt].Contended {
		t.Fatal("target did not enter")
	}
	for e := 0; e < 3; e++ {
		if v := d.Observe(baseline(n, tgt, 0.5, 10.0)); !v[tgt] {
			t.Fatalf("cooldown released after %d epochs, want 3", e+1)
		}
	}
	if v := d.Observe(baseline(n, tgt, 0.5, 10.0)); v[tgt] {
		t.Fatal("verdict still pinned after cooldown expired")
	}
}

func TestInvalidSampleClearsVerdict(t *testing.T) {
	const n, tgt = 10, 4
	d := New(n, Config{Window: 1, MinSamples: 1})
	d.Observe(baseline(n, tgt, 5.0, 10.0))
	if !d.States()[tgt].Contended {
		t.Fatal("target did not enter")
	}
	s := baseline(n, tgt, 5.0, 10.0)
	s[tgt] = Sample{}
	if v := d.Observe(s); v[tgt] {
		t.Fatal("dead server still flagged contended")
	}
	if st := d.States()[tgt]; st.Samples != 0 || st.Score != 0 {
		t.Fatalf("invalid sample did not clear the window: %+v", st)
	}
}

// TestDetectorDeterministic feeds the same sample stream twice and demands
// identical verdict sequences and final states.
func TestDetectorDeterministic(t *testing.T) {
	stream := func(d *Detector) ([][]bool, []State) {
		var vs [][]bool
		for e := 0; e < 30; e++ {
			s := make([]Sample, 8)
			for i := range s {
				// A fixed, aperiodic but deterministic signal.
				cpi := 1.0 + 0.7*math.Sin(float64(e*i+i))
				s[i] = Sample{CPI: math.Abs(cpi), MPKI: 3 + float64(i%3), MissRate: 10, Util: 0.5, Valid: e%11 != i}
			}
			vs = append(vs, d.Observe(s))
		}
		return vs, d.States()
	}
	v1, s1 := stream(New(8, Config{Seed: 42}))
	v2, s2 := stream(New(8, Config{Seed: 42}))
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("identical streams produced different verdicts or states")
	}
}
