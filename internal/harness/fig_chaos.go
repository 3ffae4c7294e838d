package harness

import (
	"fmt"

	"repro/internal/datacenter"
	"repro/internal/faults"
)

// chaosRates are the fault intensities FigureChaos sweeps. Rate 0 is the
// healthy baseline; every class of fault scales together above it.
var chaosRates = []float64{0, 0.15, 0.30, 0.45}

// chaosAt maps a sweep rate onto a concrete fault mix: the rate is the
// whole-server crash probability directly, with compile failures and
// sensor dropouts at half that and the runtime's MTTF shrinking as the
// rate rises (20s at rate 0.15 down to ~6.7s at 0.45 — roughly one
// supervised crash/restart per run at the top rate).
func chaosAt(rate float64, seed int64) *faults.Chaos {
	if rate == 0 {
		return nil
	}
	return &faults.Chaos{
		Seed:                    seed,
		ServerCrashProb:         rate,
		CompileFailProb:         rate / 2,
		RuntimeCrashMTTFSeconds: 3 / rate,
		QoSDropoutProb:          rate / 2,
	}
}

// FigureChaos is the robustness companion to the fleet simulation: the
// web-search × WL1 PC3D fleet re-run under escalating fault injection.
// The paper's safety argument (Section III-B) is that protean code fails
// soft — a dead runtime leaves the host on static code, the supervisor
// re-attaches, and the cluster scheduler re-places work from crashed
// servers — so availability and batch throughput should degrade
// gracefully with the fault rate, never collapse.
func (r *Runner) FigureChaos() (*Table, error) {
	mix := datacenter.TableIII()[0]
	t := &Table{
		ID:    "Figure C (chaos)",
		Title: "PC3D fleet under escalating fault injection: graceful degradation",
		Columns: []string{"Fault Rate", "Avail", "Batch Units", "QoS mean", "Survivor QoS",
			"Violations", "Crashes", "Replaced", "RT Restarts", "Dropouts"},
	}
	for _, rate := range chaosRates {
		cfg := r.fleetConfig("web-search", mix, SystemPC3D, 1)
		cfg.Servers, cfg.Instances = len(mix.Apps)+2, len(mix.Apps)
		cfg.Chaos = chaosAt(rate, 1)
		f, m, err := runFleet(cfg)
		if err != nil {
			return nil, err
		}
		// Chaos columns come from the fleet's telemetry rollup rather than
		// hand-aggregated result fields.
		tel := f.Telemetry()
		t.AddRow(fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%.3f", m.Availability),
			fmt.Sprintf("%.2f", m.BatchUnits),
			fmt.Sprintf("%.3f", m.QoS.Mean), fmt.Sprintf("%.3f", m.DegradedQoS.Mean),
			fmt.Sprintf("%d/%d", m.QoSViolations, m.Servers),
			m.Crashes, m.Replacements,
			tel.CounterValue("supervise", "restarts_total"),
			tel.CounterValue("pc3d", "sensor_dropouts_total"))
	}
	t.Notes = append(t.Notes,
		"rate = server-crash probability; compile-fail and sensor-dropout run at rate/2, runtime MTTF at 3s/rate",
		"crashed servers' batch instances are re-placed onto survivors after the restart delay",
		"Survivor QoS averages fault-affected servers that stayed up: restarts and re-placements cost QoS, never the host",
		"batch throughput holds or rises under faults — weakened napping frees host cycles; QoS bears the degradation")
	return t, nil
}
