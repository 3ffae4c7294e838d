package harness

import (
	"fmt"

	"repro/internal/telemetry"
)

// FigureTimeline renders a Figure-5-style activity timeline for the PC3D
// trace experiment directly from the telemetry event trace: per time
// slice, how many compiles started/finished/failed, how many EVT
// dispatches and reverts landed, how many QoS violations the policy saw,
// and the host's nap level at the end of the slice. It is the
// event-plane companion to Figure 16's sampled series.
func (r *Runner) FigureTimeline() (*Table, error) {
	run, err := r.trace(SystemPC3D)
	if err != nil {
		return nil, err
	}
	reg, freq := run.reg, run.freqHz
	interval := r.sc.TraceSeconds / traceSamples
	type slot struct {
		started, finished, failed int
		dispatches, reverts       int
		violations                int
		nap                       float64
		napSet                    bool
	}
	slots := make([]slot, traceSamples)
	for _, ev := range reg.Events() {
		i := int(float64(ev.At) / freq / interval)
		if i < 0 {
			i = 0
		}
		if i >= traceSamples {
			i = traceSamples - 1
		}
		s := &slots[i]
		switch ev.Kind {
		case telemetry.EvCompileStart:
			s.started++
		case telemetry.EvCompileFinish:
			s.finished++
		case telemetry.EvCompileFail:
			s.failed++
		case telemetry.EvDispatch:
			s.dispatches++
		case telemetry.EvRevert:
			s.reverts++
		case telemetry.EvQoSViolation:
			s.violations++
		case telemetry.EvNap:
			s.nap = ev.Value
			s.napSet = true
		}
	}
	// Nap is a level, not a rate: carry the last setting across slices
	// with no transition.
	nap := 0.0
	for i := range slots {
		if !slots[i].napSet {
			slots[i].nap = nap
		}
		nap = slots[i].nap
	}

	t := &Table{
		ID:    "Figure T (timeline)",
		Title: "PC3D activity timeline from the event trace (libquantum with web-search, fluctuating load)",
		Columns: []string{
			"t(s)", "Compiles", "Done", "Failed", "Dispatches", "Reverts", "QoS Viol", "Nap",
		},
	}
	for i, s := range slots {
		t.AddRow(
			fmt.Sprintf("%.1f", float64(i+1)*interval),
			s.started, s.finished, s.failed,
			s.dispatches, s.reverts, s.violations,
			fmt.Sprintf("%.2f", s.nap),
		)
	}
	t.Notes = append(t.Notes,
		"compile/dispatch bursts cluster at the load steps where PC3D re-searches; the quiet middle third reverts to static code",
		"nap is the host's duty-cycle restriction at the end of each slice (0 = unrestricted)")
	if d := reg.DroppedEvents(); d > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("trace ring overflowed: %d oldest events dropped before bucketing", d))
	}
	return t, nil
}
