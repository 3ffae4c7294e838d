package phase

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistanceIdentical(t *testing.T) {
	s := Signature{Hot: map[string]float64{"f": 0.7, "g": 0.3}, Rate: 1.5}
	if d := Distance(s, s); d != 0 {
		t.Errorf("Distance(s,s) = %v, want 0", d)
	}
}

func TestDistanceDisjointHot(t *testing.T) {
	a := Signature{Hot: map[string]float64{"f": 1}, Rate: 1}
	b := Signature{Hot: map[string]float64{"g": 1}, Rate: 1}
	if d := Distance(a, b); math.Abs(d-1) > 1e-9 {
		t.Errorf("disjoint hot distance = %v, want 1", d)
	}
}

func TestDistanceRateOnly(t *testing.T) {
	a := Signature{Hot: map[string]float64{"f": 1}, Rate: 1}
	b := Signature{Hot: map[string]float64{"f": 1}, Rate: 2}
	if d := Distance(a, b); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("rate distance = %v, want 0.5", d)
	}
	// Rate term is capped at 1.
	c := Signature{Hot: map[string]float64{"f": 1}, Rate: 1000}
	if d := Distance(a, c); d > 1+1e-9 {
		t.Errorf("capped rate distance = %v, want <= 1", d)
	}
}

// Property: Distance is symmetric and non-negative.
func TestDistanceProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Signature {
			s := Signature{Hot: map[string]float64{}, Rate: rng.Float64() * 10}
			for i := 0; i < rng.Intn(5); i++ {
				s.Hot[string(rune('a'+rng.Intn(6)))] = rng.Float64()
			}
			return s
		}
		a, b := mk(), mk()
		d1, d2 := Distance(a, b), Distance(b, a)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectorFirstObservationIsPhase(t *testing.T) {
	d := NewDetector()
	if !d.Observe(Signature{Hot: map[string]float64{"f": 1}, Rate: 1}) {
		t.Error("first observation should start a phase")
	}
}

func TestDetectorStablePhase(t *testing.T) {
	d := NewDetector()
	base := Signature{Hot: map[string]float64{"f": 0.9, "g": 0.1}, Rate: 1.0}
	d.Observe(base)
	for i := 0; i < 50; i++ {
		// Small sampling noise must not trip the detector.
		noisy := Signature{
			Hot:  map[string]float64{"f": 0.9 - 0.02*float64(i%3), "g": 0.1 + 0.02*float64(i%3)},
			Rate: 1.0 + 0.05*float64(i%2),
		}
		if d.Observe(noisy) {
			t.Fatalf("noise tripped the detector at step %d", i)
		}
	}
}

func TestDetectorCatchesHotShift(t *testing.T) {
	d := NewDetector()
	d.Observe(Signature{Hot: map[string]float64{"f": 1}, Rate: 1})
	if !d.Observe(Signature{Hot: map[string]float64{"g": 1}, Rate: 1}) {
		t.Error("complete hot-region shift not detected")
	}
}

func TestDetectorCatchesLoadSwing(t *testing.T) {
	d := NewDetector()
	d.Observe(Signature{Hot: map[string]float64{"serve": 1}, Rate: 0.2})
	if !d.Observe(Signature{Hot: map[string]float64{"serve": 1}, Rate: 0.9}) {
		t.Error("large rate swing not detected")
	}
}

func TestDetectorDriftTracksSlowTrend(t *testing.T) {
	d := NewDetector()
	rate := 1.0
	d.Observe(Signature{Hot: map[string]float64{"f": 1}, Rate: rate})
	// Rate creeps up 1% per observation; drift should absorb it.
	for i := 0; i < 100; i++ {
		rate *= 1.01
		if d.Observe(Signature{Hot: map[string]float64{"f": 1}, Rate: rate}) {
			t.Fatalf("slow trend tripped detector at step %d (rate %.2f)", i, rate)
		}
	}
}

// TestDetectorReset: a phase change resets the representative signature to
// the new phase's, so the new phase is stable and the old one is a change.
func TestDetectorReset(t *testing.T) {
	d := NewDetector()
	a := Signature{Hot: map[string]float64{"f": 1}, Rate: 1}
	b := Signature{Hot: map[string]float64{"g": 1}, Rate: 1}
	d.Observe(a)
	if !d.Observe(b) {
		t.Fatal("hot-region shift not detected")
	}
	if d.Observe(b) {
		t.Error("the new phase's own signature changed phase again")
	}
	if !d.Observe(a) {
		t.Error("returning to the old phase not detected")
	}
}

func TestCoPhase(t *testing.T) {
	c := NewCoPhase()
	host := Signature{Hot: map[string]float64{"f": 1}, Rate: 1}
	ext := Signature{Hot: map[string]float64{"serve": 1}, Rate: 0.5}
	if !c.Observe("host", host) {
		t.Error("first host observation should change co-phase")
	}
	if !c.Observe("ext", ext) {
		t.Error("first external observation should change co-phase")
	}
	if c.Observe("host", host) || c.Observe("ext", ext) {
		t.Error("stable signatures changed co-phase")
	}
	// External load swing changes the co-phase even with host stable.
	ext2 := ext
	ext2.Rate = 2.0
	if !c.Observe("ext", ext2) {
		t.Error("external swing did not change co-phase")
	}
	// A program not seen before gets a fresh detector: a co-phase change.
	if !c.Observe("ext2", ext2) {
		t.Error("first observation of a new co-runner should change co-phase")
	}
}

func TestSignatureString(t *testing.T) {
	s := Signature{Hot: map[string]float64{"a": 0.5, "b": 0.3, "c": 0.15, "d": 0.05}, Rate: 1.25}
	str := s.String()
	if !strings.Contains(str, "a:50%") || !strings.Contains(str, "rate=1.25") {
		t.Errorf("String = %q", str)
	}
	if !strings.Contains(str, "…") {
		t.Errorf("String should elide beyond top 3: %q", str)
	}
}
