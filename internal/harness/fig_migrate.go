package harness

import (
	"fmt"

	"repro/internal/contend"
	"repro/internal/datacenter"
	"repro/internal/fleet"
	"repro/internal/loadgen"
)

// migrateMix is the figmigrate workload: half the batch instances are
// er-naive — the roster's heaviest LLC aggressor, inflating a co-located
// webservice's CPI by ~65% — and half are milc, whose footprint barely
// registers (~1%). The split gives the detector something to select: only
// er-naive hosts cross the quantile threshold, so every migration the
// planner executes should carry an er-naive instance.
func migrateMix() datacenter.Mix {
	return datacenter.Mix{Name: "contended", Apps: []string{"er-naive", "milc"}}
}

// migrateFleetConfig is the shared off/on configuration: a 12-server
// diurnal fleet, 4 batch instances, no per-server mitigation (SystemNone),
// with the load trace phase-spread across a full period so the cluster is
// a standing snapshot of the day — each server parked at its own point of
// the diurnal cycle. The period (60 s) dwarfs the run, so a server's load
// barely moves while the experiment measures: "least loaded now" is the
// genuine trough, not a moving target. The base offset (24 s) rotates the
// cycle so round-robin placement drops the er-naive aggressors on servers
// riding the crest. Migration, when enabled, is the only mechanism acting
// on contention.
func (r *Runner) migrateFleetConfig(migrate bool) fleet.Config {
	cfg := r.fleetConfig("web-search", migrateMix(), SystemNone, 7)
	cfg.Servers, cfg.Instances = 12, 4
	cfg.Trace = loadgen.Offset{Trace: loadgen.Diurnal{Period: 60, Low: 0.25, High: 0.95}, By: 24}
	cfg.PhaseSpreadSeconds = 60
	if migrate {
		cfg.Migration = &fleet.MigrationConfig{
			WindowSeconds:   0.5,
			BlackoutSeconds: 0.25,
			BudgetPerEpoch:  2,
			Detector: contend.Config{
				Window: 3, MinSamples: 2, Cooldown: 2,
				Quantile: 0.75, Enter: 1.25, Exit: 1.05,
			},
		}
	}
	return cfg
}

// MigrateComparison is the measured off/on pair behind figmigrate.
type MigrateComparison struct {
	Off, On fleet.Metrics
}

// RunMigrateComparison executes the diurnal fleet twice — identical
// placement, seed and trace; migration off then on — so every delta in the
// metrics is attributable to the contention-detection → live-migration
// control loop.
func (r *Runner) RunMigrateComparison() (MigrateComparison, error) {
	off, on, _, err := offOn(r.migrateFleetConfig)
	return MigrateComparison{Off: off, On: on}, err
}

// FigureMigrate is the migration control loop's headline artifact: the
// diurnal-trace fleet run with live migration off and on. The off run
// leaves er-naive aggressors pinned where placement put them, so the
// servers they ride carry the QoS tail; the on run lets the detector flag
// those servers and the planner walk their instances toward the fleet's
// diurnal trough, paying a blackout per move. The QoS tail columns are the
// low-end order statistics: "p95 tail" is the QoS level 95% of servers
// meet or exceed (the 5th percentile), "p99 tail" the level 99% meet (the
// 1st percentile) — the warehouse operator's service-level view.
func (r *Runner) FigureMigrate() (*Table, error) {
	cmp, err := r.RunMigrateComparison()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Figure M (migration)",
		Title: "Contention-driven live migration on the diurnal fleet: QoS tail vs migration cost",
		Columns: []string{"Migration", "QoS p50", "QoS p95 tail", "QoS p99 tail", "QoS min",
			"Viol", "Util mean", "Batch Units", "Moves", "Quanta Lost"},
	}
	for _, row := range []struct {
		name string
		m    fleet.Metrics
	}{{"off", cmp.Off}, {"on", cmp.On}} {
		m := row.m
		t.AddRow(row.name,
			fmt.Sprintf("%.3f", m.QoS.P50),
			fmt.Sprintf("%.3f", m.QoS.P05),
			fmt.Sprintf("%.3f", m.QoS.P01),
			fmt.Sprintf("%.3f", m.QoS.Min),
			fmt.Sprintf("%d/%d", m.QoSViolations, m.Servers),
			fmt.Sprintf("%.3f", m.Utilization.Mean),
			fmt.Sprintf("%.2f", m.BatchUnits),
			m.Migrations,
			m.MigrationQuantaLost)
	}
	d95 := cmp.On.QoS.P05 - cmp.Off.QoS.P05
	d99 := cmp.On.QoS.P01 - cmp.Off.QoS.P01
	verdict := fmt.Sprintf("measured: migration improves the p95 tail by %+.3f and the p99 tail by %+.3f", d95, d99)
	if d95 < 0 && d99 < 0 {
		verdict = fmt.Sprintf("measured: no tail improvement at this scale (p95 %+.3f, p99 %+.3f) — "+
			"the blackout cost and post-landing interference offset the eviction benefit here", d95, d99)
	}
	t.Notes = append(t.Notes,
		verdict,
		"mix is half er-naive (heavy LLC aggressor, ~65% webservice CPI inflation) and half milc (~1%): only er-naive hosts cross the detector's quantile threshold",
		"each move costs one blackout (0.25s of lost batch quanta) and lands on the least-loaded non-contended server — the fleet's diurnal trough",
		"off and on runs share seed, placement and trace; every delta is the control loop's doing")
	return t, nil
}
