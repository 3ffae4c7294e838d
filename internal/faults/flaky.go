package faults

import (
	"math"

	"repro/internal/machine"
	"repro/internal/qos"
)

// FlakySource wraps a qos.Source with a deterministic dropout schedule:
// while the schedule says the sensor is dark, readings either report
// absence (ok=false) or — in NaN mode — a NaN claimed as valid, modeling a
// corrupted rather than dead sensor.
type FlakySource struct {
	Src qos.Source
	// M supplies the current simulated time for the schedule.
	M *machine.Machine
	// Drop is the dropout schedule (e.g. Chaos.DropoutFn); nil never drops.
	Drop func(nowCycles uint64) bool
	// NaN selects corrupted-sensor mode.
	NaN bool
}

// QoS implements qos.Source.
func (f *FlakySource) QoS() (float64, bool) {
	if f.Drop != nil && f.Drop(f.M.Now()) {
		if f.NaN {
			return math.NaN(), true
		}
		return 0, false
	}
	return f.Src.QoS()
}

// FlakyWindow wraps a qos.WindowScorer the same way: a window whose Score
// falls in a dark period yields no (or NaN) signal.
type FlakyWindow struct {
	Win  qos.WindowScorer
	Drop func(nowCycles uint64) bool
	NaN  bool
}

// Mark implements qos.WindowScorer.
func (f *FlakyWindow) Mark(m *machine.Machine) { f.Win.Mark(m) }

// Score implements qos.WindowScorer.
func (f *FlakyWindow) Score(m *machine.Machine) (float64, bool) {
	if f.Drop != nil && f.Drop(m.Now()) {
		if f.NaN {
			return math.NaN(), true
		}
		return 0, false
	}
	return f.Win.Score(m)
}
