package core

import (
	"math/rand"

	"repro/internal/ir"
	"repro/internal/machine"
)

// StressRecompiler drives the dynamic-compilation stress tests of Figures
// 5 and 6: it keeps requesting identity recompilations of randomly selected
// functions, scheduling the next request a fixed interval after the
// previous compile completes, and dispatches each finished variant through
// the EVT when the function is virtualized.
//
// Register it with the machine after the Runtime it drives.
type StressRecompiler struct {
	rt *Runtime
	// IntervalCycles separates a compile's completion from the next
	// request.
	IntervalCycles uint64

	candidates []string
	rng        *rand.Rand
	nextAt     uint64
	inFlight   bool
}

// NewStressRecompiler builds a stress driver over rt selecting among all
// functions of the host's IR. seed fixes the random selection.
func NewStressRecompiler(rt *Runtime, intervalCycles uint64, seed int64) *StressRecompiler {
	var names []string
	for _, f := range rt.IR().Funcs {
		names = append(names, f.Name)
	}
	return &StressRecompiler{
		rt:             rt,
		IntervalCycles: intervalCycles,
		candidates:     names,
		rng:            rand.New(rand.NewSource(seed)),
	}
}

// Tick requests a new recompilation whenever the previous one has finished
// and the interval has elapsed.
func (s *StressRecompiler) Tick(m *machine.Machine) {
	if s.inFlight || m.Now() < s.nextAt || len(s.candidates) == 0 {
		return
	}
	fn := s.candidates[s.rng.Intn(len(s.candidates))]
	s.inFlight = true
	err := s.rt.RequestVariant(fn, Identity, nil, func(v *Variant, err error) {
		s.inFlight = false
		s.nextAt = m.Now() + s.IntervalCycles
		if err != nil {
			return
		}
		// Dispatch when the function is reachable through the EVT; entry
		// functions and non-virtualized callees are recompiled but cannot
		// be rerouted — same as on real hardware.
		if s.rt.Host().EVT().SlotFor(fn) >= 0 {
			_ = s.rt.Dispatch(v) // a failed dispatch leaves static code running
		}
	})
	if err != nil {
		s.inFlight = false
	}
}

// NTTransform returns a Transform that sets the non-temporal bit on
// exactly the loads whose IDs are in mask — the code-variant generator
// PC3D hands to the runtime compiler. Loads absent from the mask are
// explicitly cleared, so a variant fully describes its hint vector.
func NTTransform(mask map[int]bool) Transform {
	return func(m *ir.Module) error {
		for _, ld := range m.Loads() {
			ld.NT = mask[ld.ID]
		}
		return nil
	}
}
