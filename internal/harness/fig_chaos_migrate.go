package harness

import (
	"fmt"

	"repro/internal/contend"
	"repro/internal/faults"
	"repro/internal/fleet"
)

// chaosMigrateFleetConfig is the figmigrate fleet soaked in migration-domain
// chaos: the same 12-server diurnal cluster, but servers crash mid-run,
// planned moves abort before detach or are refused at landing, blackouts
// stretch by jitter, and the detector's counter samples arrive corrupted or
// stale. The fault schedule is a pure function of the fleet seed, so the off
// and on runs see the *same* crashes and the same sensor garbage — every
// delta between them is the transactional move path (retry, rollback,
// circuit breaker) earning or losing its keep under fire.
//
// The landing-failure rate is deliberately brutal (most attempts refused)
// and the retry budget short, so the soak provably exercises the rollback
// path and trips the breaker at least once — the two behaviors the
// conservation auditor then has to certify as loss-free.
func (r *Runner) chaosMigrateFleetConfig(migrate bool) fleet.Config {
	cfg := r.migrateFleetConfig(migrate)
	cfg.Chaos = &faults.Chaos{
		ServerCrashProb:     0.15,
		RestartDelaySeconds: 0.25,
		MoveDetachFailProb:  0.10,
		MoveLandFailProb:    0.70,
		MoveStallMaxSeconds: 0.05,
		SampleCorruptProb:   0.02,
		SampleStaleProb:     0.05,
	}
	if migrate {
		cfg.Migration.MaxLandAttempts = 2
		cfg.Migration.Breaker = contend.BreakerConfig{
			FailureThreshold: 2,
			CooldownEpochs:   3,
		}
	}
	return cfg
}

// ChaosMigrateComparison is the measured off/on pair behind figchaosmigrate,
// plus the on-run's conservation-audit report.
type ChaosMigrateComparison struct {
	Off, On fleet.Metrics
	// Audit is the on-run's conservation report (nil only if the run never
	// reached a decision epoch).
	Audit *fleet.AuditReport
}

// RunChaosMigrateComparison executes the chaos-soaked diurnal fleet twice —
// identical seed, placement, trace and fault schedule; migration off then on.
func (r *Runner) RunChaosMigrateComparison() (ChaosMigrateComparison, error) {
	off, on, f, err := offOn(r.chaosMigrateFleetConfig)
	if err != nil {
		return ChaosMigrateComparison{}, err
	}
	return ChaosMigrateComparison{Off: off, On: on, Audit: f.AuditReport()}, nil
}

// FigureChaosMigrate is the robustness artifact: the migration control loop
// run through a fault soak that attacks the migration machinery itself.
// Besides the QoS tail the table reports the transactional move ledger —
// landed vs failed moves, rollbacks, retries, breaker trips, injected sensor
// faults — and the conservation auditor's verdict. The audit column is the
// headline: zero violations means every epoch's instance census balanced,
// i.e. no instance was lost or duplicated no matter how many moves aborted
// mid-flight.
func (r *Runner) FigureChaosMigrate() (*Table, error) {
	cmp, err := r.RunChaosMigrateComparison()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Figure CM (chaos migration)",
		Title: "Fault-tolerant migration under migration-domain chaos: transactional moves, breaker, conservation audit",
		Columns: []string{"Migration", "QoS p50", "QoS p95 tail", "Crashes", "Moves", "Failed",
			"Rollbacks", "Retries", "Trips", "Corrupt", "Stale", "Audit Viol"},
	}
	for _, row := range []struct {
		name string
		m    fleet.Metrics
	}{{"off", cmp.Off}, {"on", cmp.On}} {
		m := row.m
		t.AddRow(row.name,
			fmt.Sprintf("%.3f", m.QoS.P50),
			fmt.Sprintf("%.3f", m.QoS.P05),
			m.Crashes,
			m.Migrations,
			m.MovesFailed,
			m.MoveRollbacks,
			m.MoveRetries,
			m.BreakerTrips,
			m.CorruptSamples,
			m.StaleSamples,
			m.AuditViolations)
	}
	verdict := fmt.Sprintf("measured: %d moves landed, %d failed (%d rolled back, %d retries), breaker tripped %d time(s), audit violations: %d",
		cmp.On.Migrations, cmp.On.MovesFailed, cmp.On.MoveRollbacks,
		cmp.On.MoveRetries, cmp.On.BreakerTrips, cmp.On.AuditViolations)
	epochs := 0
	if cmp.Audit != nil {
		epochs = len(cmp.Audit.Epochs)
	}
	t.Notes = append(t.Notes,
		verdict,
		fmt.Sprintf("conservation auditor checked %d epoch barriers: hosted + in-flight + stranded instances must equal the placed count at every one", epochs),
		"off and on runs share the seeded fault schedule (crashes, detach/land refusals, blackout stalls, corrupted/stale detector samples); only the on run reacts to contention",
		"a failed landing retries against the next eligible destination under capped backoff, then rolls back to the source with a penalty — the instance never vanishes and never runs twice",
		"K consecutive move failures (or a corrupted-sample epoch) open the circuit breaker: migration halts for the cooldown, then a single half-open probe decides whether to resume")
	return t, nil
}
