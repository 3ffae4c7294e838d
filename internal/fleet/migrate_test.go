package fleet

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/contend"
	"repro/internal/datacenter"
	"repro/internal/faults"
)

// migrateConfig is a small saturated fleet where contention detection has
// something to find: two er-naive aggressors among six servers, no
// mitigation, and a detector tuned to the short test timeline.
func migrateConfig(workers int, policy Policy) Config {
	return Config{
		Servers:        6,
		Instances:      2,
		Webservice:     "web-search",
		Mix:            datacenter.Mix{Name: "test", Apps: []string{"er-naive"}},
		System:         SystemNone,
		Policy:         policy,
		Seed:           42,
		Workers:        workers,
		SoloSeconds:    0.5,
		SettleSeconds:  0.25,
		MeasureSeconds: 0.5,
		Migration: &MigrationConfig{
			WindowSeconds:   0.1,
			BlackoutSeconds: 0.05,
			BudgetPerEpoch:  2,
			Detector: contend.Config{
				Window: 2, MinSamples: 2, Cooldown: 1,
				Quantile: 0.5, Enter: 1.15, Exit: 1.05,
			},
		},
	}
}

type migrateRun struct {
	m       Metrics
	status  *ContendStatus
	report  *AuditReport
	prom    string
	jsonl   string
	contend string
	audit   string
	// placed marks servers that hosted an instance at t=0.
	placed map[int]bool
}

func doMigrateRun(t *testing.T, cfg Config) migrateRun {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	placed := make(map[int]bool)
	for _, srv := range f.Placement() {
		placed[srv] = true
	}
	var cj strings.Builder
	st := f.ContendStatus()
	if st != nil {
		if err := st.WriteJSON(&cj); err != nil {
			t.Fatal(err)
		}
	}
	var aj strings.Builder
	rep := f.AuditReport()
	if rep != nil {
		if err := rep.WriteJSON(&aj); err != nil {
			t.Fatal(err)
		}
	}
	return migrateRun{
		m:       m,
		status:  st,
		report:  rep,
		prom:    f.Telemetry().PrometheusText(),
		jsonl:   render(f.Telemetry().WriteJSONL),
		contend: cj.String(),
		audit:   aj.String(),
		placed:  placed,
	}
}

// TestMigrationMovesAggressors is the end-to-end control loop check: the
// detector flags the co-located servers, the planner evicts their er-naive
// instances, and the accounting (counters, per-server results, status
// export) all agree on what happened.
func TestMigrationMovesAggressors(t *testing.T) {
	r := doMigrateRun(t, migrateConfig(2, RoundRobin{}))
	m := r.m
	if m.Migrations == 0 {
		t.Fatal("no migrations executed; the detector never fired")
	}
	// Blackout 0.05s at 10 MHz / 10k-cycle quanta = 50 quanta per move.
	if want := uint64(m.Migrations) * 50; m.MigrationQuantaLost != want {
		t.Fatalf("MigrationQuantaLost = %d, want %d (%d moves × 50 quanta)", m.MigrationQuantaLost, want, m.Migrations)
	}
	in, out := 0, 0
	for _, sr := range m.PerServer {
		in += sr.MigratedIn
		out += sr.MigratedOut
	}
	if out != m.Migrations || in != m.Migrations {
		t.Fatalf("per-server migration counts (in %d, out %d) disagree with Migrations %d", in, out, m.Migrations)
	}
	if r.status == nil {
		t.Fatal("ContendStatus is nil after a migration run")
	}
	if len(r.status.Servers) != 6 || r.status.Epoch < 2 {
		t.Fatalf("status = epoch %d, %d servers", r.status.Epoch, len(r.status.Servers))
	}
	if len(r.status.Moves) != m.Migrations {
		t.Fatalf("status logs %d moves, Metrics counted %d", len(r.status.Moves), m.Migrations)
	}
	for _, mv := range r.status.Moves {
		if mv.From == mv.To || mv.App == "" {
			t.Fatalf("malformed move record %+v", mv)
		}
	}
	if !strings.Contains(r.prom, "contend_migrations_total") {
		t.Fatal("rollup is missing contend_migrations_total")
	}
	if !strings.Contains(r.jsonl, `"kind":"migration"`) {
		t.Fatal("trace is missing migration events")
	}
	// Batch work survives the move: both instances still report
	// utilization somewhere, and the fleet total stays positive.
	if m.BatchUnits <= 0 {
		t.Fatalf("BatchUnits = %v after migration", m.BatchUnits)
	}
}

// TestMigrationDeterministicAcrossWorkerCounts is the contract the ISSUE
// pins: with migration enabled, metrics AND every export (Prometheus
// text, JSONL trace, /contend JSON) are byte-identical between 1 and 8
// workers — the epoch-barrier coordinator keeps live migration inside
// the determinism envelope.
func TestMigrationDeterministicAcrossWorkerCounts(t *testing.T) {
	r1 := doMigrateRun(t, migrateConfig(1, RoundRobin{}))
	r8 := doMigrateRun(t, migrateConfig(8, RoundRobin{}))
	if !reflect.DeepEqual(r1.m, r8.m) {
		t.Fatalf("metrics diverge across worker counts:\n1: %+v\n8: %+v", r1.m, r8.m)
	}
	if r1.prom != r8.prom {
		t.Fatal("Prometheus export differs between -workers 1 and 8")
	}
	if r1.jsonl != r8.jsonl {
		t.Fatal("JSONL trace differs between -workers 1 and 8")
	}
	if r1.contend == "" || r1.contend != r8.contend {
		t.Fatal("/contend JSON differs between -workers 1 and 8")
	}
	if r1.audit == "" || r1.audit != r8.audit {
		t.Fatal("/audit JSON differs between -workers 1 and 8")
	}
}

// TestMigrationUnderPlacementPolicies exercises the re-placement paths the
// satellite names: migration churn on top of both the least-loaded and the
// contention-aware initial placements must stay well-formed (no double
// occupancy, instances conserved).
func TestMigrationUnderPlacementPolicies(t *testing.T) {
	for _, policy := range []Policy{LeastLoaded{}, ContentionAware{}} {
		cfg := migrateConfig(2, policy)
		r := doMigrateRun(t, cfg)
		hosting := 0
		for _, sr := range r.m.PerServer {
			if sr.Absorbed > 0 {
				t.Fatalf("%s: server %d absorbed a chaos re-placement with chaos off", policy.Name(), sr.Index)
			}
			h := sr.MigratedIn - sr.MigratedOut
			if r.placed[sr.Index] {
				h++
			}
			if h < 0 || h > 1 {
				t.Fatalf("%s: server %d occupancy %d (in %d, out %d, placed %v)",
					policy.Name(), sr.Index, h, sr.MigratedIn, sr.MigratedOut, r.placed[sr.Index])
			}
			hosting += h
		}
		// Every instance is still hosted somewhere (blackouts are over by
		// the horizon in this config, and no server crashes).
		if hosting != cfg.Instances {
			t.Fatalf("%s: %d instances hosted at end, want %d", policy.Name(), hosting, cfg.Instances)
		}
	}
}

// chaosMigrateConfig turns on the migration fault domain on top of the
// migrating test fleet: detach and landing faults, blackout stalls,
// corrupted and stale detector samples, plus server crashes — every
// failure path the transactional move protocol has to survive.
func chaosMigrateConfig(workers int) Config {
	cfg := migrateConfig(workers, RoundRobin{})
	cfg.Chaos = &faults.Chaos{
		ServerCrashProb:     0.3,
		RestartDelaySeconds: 0.1,
		MoveDetachFailProb:  0.15,
		MoveLandFailProb:    0.9,
		MoveStallMaxSeconds: 0.02,
		SampleCorruptProb:   0.01,
		SampleStaleProb:     0.05,
	}
	cfg.Migration.MaxLandAttempts = 2
	cfg.Migration.Breaker = contend.BreakerConfig{FailureThreshold: 3, CooldownEpochs: 2}
	return cfg
}

// TestChaosMigrateConserves is the tentpole invariant: under nonzero
// move-failure chaos (failed detaches, failed landings, stalls, sensor
// faults, crashing servers) the conservation auditor must observe zero
// violations — an instance is never lost and never runs twice, at every
// epoch barrier and at the horizon.
func TestChaosMigrateConserves(t *testing.T) {
	r := doMigrateRun(t, chaosMigrateConfig(2))
	if r.report == nil {
		t.Fatal("no audit report after a migrating chaos run")
	}
	if !r.report.Clean() || r.m.AuditViolations != 0 {
		t.Fatalf("audit found %d violations: %+v", len(r.report.Violations), r.report.Violations)
	}
	if len(r.report.Epochs) < 3 {
		t.Fatalf("auditor swept only %d epochs", len(r.report.Epochs))
	}
	// The run must actually exercise the failure path, or the invariant is
	// vacuous.
	if r.m.MovesFailed == 0 {
		t.Fatal("chaos produced no failed moves; the test proves nothing")
	}
	if r.m.Migrations == 0 {
		t.Fatal("no move ever landed under chaos")
	}
	// The status export and the metrics agree on the failure accounting.
	if r.status.MovesFailed != uint64(r.m.MovesFailed) || r.status.Rollbacks != uint64(r.m.MoveRollbacks) {
		t.Fatalf("status (failed %d, rollbacks %d) disagrees with metrics (failed %d, rollbacks %d)",
			r.status.MovesFailed, r.status.Rollbacks, r.m.MovesFailed, r.m.MoveRollbacks)
	}
	landed, failed := 0, 0
	for _, mv := range r.status.Moves {
		switch mv.Outcome {
		case MoveLanded:
			landed++
		case MoveRolledBack, MoveDetachFailed:
			failed++
		default:
			t.Fatalf("move record with unknown outcome %q", mv.Outcome)
		}
	}
	if landed != r.m.Migrations || failed != r.m.MovesFailed {
		t.Fatalf("move log (landed %d, failed %d) disagrees with counters (%d, %d)",
			landed, failed, r.m.Migrations, r.m.MovesFailed)
	}
}

// TestChaosMigrationDeterministicAcrossWorkerCounts pins the whole fault
// path inside the determinism envelope: with migration chaos on, metrics
// and every export — Prometheus, JSONL trace, /contend JSON, /audit JSON —
// are byte-identical between 1 and 8 workers.
func TestChaosMigrationDeterministicAcrossWorkerCounts(t *testing.T) {
	r1 := doMigrateRun(t, chaosMigrateConfig(1))
	r8 := doMigrateRun(t, chaosMigrateConfig(8))
	if !reflect.DeepEqual(r1.m, r8.m) {
		t.Fatalf("metrics diverge across worker counts:\n1: %+v\n8: %+v", r1.m, r8.m)
	}
	if r1.prom != r8.prom {
		t.Fatal("Prometheus export differs between -workers 1 and 8")
	}
	if r1.jsonl != r8.jsonl {
		t.Fatal("JSONL trace differs between -workers 1 and 8")
	}
	if r1.contend == "" || r1.contend != r8.contend {
		t.Fatal("/contend JSON differs between -workers 1 and 8")
	}
	if r1.audit == "" || r1.audit != r8.audit {
		t.Fatal("/audit JSON differs between -workers 1 and 8")
	}
}

// TestBreakerDegradesGracefully proves the circuit breaker's promise: when
// every landing fails, the breaker trips after K consecutive failed moves
// and the fleet finishes the run with migration suspended — no thrashing,
// no lost instances, batch work still delivered.
func TestBreakerDegradesGracefully(t *testing.T) {
	cfg := migrateConfig(2, RoundRobin{})
	cfg.Chaos = &faults.Chaos{MoveLandFailProb: 1}
	cfg.Migration.MaxLandAttempts = 2
	cfg.Migration.Breaker = contend.BreakerConfig{FailureThreshold: 2, CooldownEpochs: 50}
	r := doMigrateRun(t, cfg)
	if r.m.Migrations != 0 {
		t.Fatalf("%d moves landed with MoveLandFailProb=1", r.m.Migrations)
	}
	if r.m.BreakerTrips < 1 {
		t.Fatal("breaker never tripped under total landing failure")
	}
	if r.m.MovesFailed < 2 {
		t.Fatalf("only %d failed moves before the trip, threshold is 2", r.m.MovesFailed)
	}
	// The cooldown outlasts the run, so after the trip the breaker stays
	// open and no further moves are attempted.
	if r.status.BreakerState != contend.BreakerOpen.String() {
		t.Fatalf("final breaker state %q, want open", r.status.BreakerState)
	}
	if r.m.AuditViolations != 0 {
		t.Fatalf("audit found %d violations: %+v", r.m.AuditViolations, r.report.Violations)
	}
	// Degraded ≠ broken: the run completed, instances are conserved and
	// still doing work (rollbacks cost blackout quanta but never strand).
	hosting := 0
	for _, sr := range r.m.PerServer {
		h := sr.MigratedIn - sr.MigratedOut
		if r.placed[sr.Index] {
			h++
		}
		hosting += h
	}
	if hosting != cfg.Instances {
		t.Fatalf("%d instances hosted at end, want %d", hosting, cfg.Instances)
	}
	if r.m.BatchUnits <= 0 {
		t.Fatalf("BatchUnits = %v; fleet stopped delivering batch work", r.m.BatchUnits)
	}
}

// TestPlannerEdgeCases covers the decision-time corners the coordinator
// leans on: an exhausted budget and an empty destination set must both be
// deterministic no-ops, never panics.
func TestPlannerEdgeCases(t *testing.T) {
	cands := []contend.Candidate{{Server: 0, App: "er-naive", Score: 5}}
	targets := []contend.Target{
		{Server: 1, Load: 0.2, Eligible: true},
		{Server: 2, Load: 0.4, Eligible: true},
	}
	// Budget exhausted (breaker open, or spent): plans nothing.
	if moves := contend.PlanMoves(42, cands, targets, 0); moves != nil {
		t.Fatalf("budget 0 planned %d moves", len(moves))
	}
	// Zero eligible destinations: plans nothing.
	none := []contend.Target{
		{Server: 1, Load: 0.2, Eligible: false},
		{Server: 2, Load: 0.4, Eligible: false},
	}
	if moves := contend.PlanMoves(42, cands, none, 4); moves != nil {
		t.Fatalf("no eligible targets but planned %d moves", len(moves))
	}
	if ts := contend.OrderTargets(42, none); len(ts) != 0 {
		t.Fatalf("OrderTargets returned %d ineligible targets", len(ts))
	}
	// More candidates than targets: the plan stops at the targets.
	many := append(cands, contend.Candidate{Server: 3, App: "milc", Score: 4},
		contend.Candidate{Server: 4, App: "milc", Score: 3})
	if moves := contend.PlanMoves(42, many, targets, 10); len(moves) != 2 {
		t.Fatalf("planned %d moves for 2 targets", len(moves))
	}
}

// TestMoveSurvivesDestinationCrash drives migration against a fleet where
// servers crash mid-run: a move whose destination dies during the blackout
// must retry or roll back deterministically — never panic, never strand
// the instance. High crash probability makes the coordinator re-place
// victims dynamically in the same epochs moves are in flight.
func TestMoveSurvivesDestinationCrash(t *testing.T) {
	cfg := migrateConfig(2, RoundRobin{})
	cfg.Chaos = &faults.Chaos{ServerCrashProb: 0.5, RestartDelaySeconds: 0.1}
	r := doMigrateRun(t, cfg)
	if r.m.Crashes == 0 {
		t.Fatal("no server crashed; the test exercises nothing")
	}
	if r.m.AuditViolations != 0 {
		t.Fatalf("audit found %d violations: %+v", r.m.AuditViolations, r.report.Violations)
	}
	// Conservation at the horizon, from the audit's own census: the final
	// sweep accounts every placed instance as hosted or stranded-on-dead.
	last := r.report.Epochs[len(r.report.Epochs)-1]
	if got := last.Hosted + last.InFlight + last.Stranded; got != r.report.Instances {
		t.Fatalf("final census %d (hosted %d + in-flight %d + stranded %d), placed %d",
			got, last.Hosted, last.InFlight, last.Stranded, r.report.Instances)
	}
}
