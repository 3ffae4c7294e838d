package fleet

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/slo"
	"repro/internal/tsdb"
)

// sloChaosConfig is a crash-heavy migration fleet with the SLO engine on:
// crashed servers burn the availability budget fast, so the run reliably
// fires at least one alert and freezes at least one postmortem bundle.
func sloChaosConfig(workers int) Config {
	cfg := migrateConfig(workers, RoundRobin{})
	cfg.Chaos = &faults.Chaos{
		ServerCrashProb:     0.5,
		RestartDelaySeconds: 0.25,
	}
	cfg.SLO = &SLOConfig{BoostBudget: 1}
	return cfg
}

type sloRun struct {
	m       Metrics
	status  string
	alerts  string
	tsdb    string
	bundles []string
}

func doSLORun(t *testing.T, cfg Config) sloRun {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	var db strings.Builder
	if err := f.WriteTSDB(&db); err != nil {
		t.Fatal(err)
	}
	var bundles []string
	for _, b := range f.Postmortems() {
		bundles = append(bundles, b.JSON())
	}
	return sloRun{
		m:       m,
		status:  f.latest().slo,
		alerts:  f.AlertLogJSON(),
		tsdb:    db.String(),
		bundles: bundles,
	}
}

// TestSLODeterministicAcrossWorkerCounts extends the concurrency contract
// to the judgment layer: the alert log, the tsdb export, the SLO status and
// every frozen postmortem bundle must be byte-identical between a serial
// and an 8-worker run of the same seeded chaos fleet.
func TestSLODeterministicAcrossWorkerCounts(t *testing.T) {
	r1 := doSLORun(t, sloChaosConfig(1))
	r8 := doSLORun(t, sloChaosConfig(8))
	if !reflect.DeepEqual(r1.m, r8.m) {
		t.Error("metrics diverge across worker counts")
	}
	if r1.alerts != r8.alerts {
		t.Errorf("alert logs diverge across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", r1.alerts, r8.alerts)
	}
	if r1.tsdb != r8.tsdb {
		t.Error("tsdb exports diverge across worker counts")
	}
	if r1.status != r8.status {
		t.Errorf("SLO status diverges across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", r1.status, r8.status)
	}
	if !reflect.DeepEqual(r1.bundles, r8.bundles) {
		t.Error("postmortem bundles diverge across worker counts")
	}

	// The crash-heavy run must actually exercise the pipeline end to end.
	if r1.m.AlertsFired < 1 {
		t.Errorf("AlertsFired = %d, want >= 1 (crash chaos should burn the availability budget)", r1.m.AlertsFired)
	}
	if r1.m.Postmortems < 1 {
		t.Errorf("Postmortems = %d, want >= 1", r1.m.Postmortems)
	}
	if !strings.Contains(r1.alerts, `"to": "firing"`) {
		t.Errorf("alert log records no firing transition:\n%s", r1.alerts)
	}
	all := strings.Join(r1.bundles, "")
	for _, section := range []string{`"slo":`, `"tsdb_window":`, `"trace_tail":`, `"open_spans":`, `"contend":`, `"audit":`} {
		if !strings.Contains(all, section) {
			t.Errorf("postmortem bundles missing section %s", section)
		}
	}
	// Bundles must be valid JSON (sections embed pre-rendered sub-documents).
	var anyJSON any
	for i, b := range r1.bundles {
		if err := json.Unmarshal([]byte(b), &anyJSON); err != nil {
			t.Errorf("postmortem bundle %d is not valid JSON: %v\n%s", i, err, b)
		}
	}
	if err := json.Unmarshal([]byte(r1.tsdb), &anyJSON); err != nil {
		t.Errorf("tsdb export is not valid JSON: %v", err)
	}
}

// TestSLOObserverDoesNotPerturbSimulation: the observer only reads server
// state, so a run with the SLO engine on must measure exactly the same
// fleet as one with it off.
func TestSLOObserverDoesNotPerturbSimulation(t *testing.T) {
	base := testConfig(2)
	with := testConfig(2)
	with.SLO = &SLOConfig{WindowSeconds: 0.25}

	run := func(cfg Config) Metrics {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m0, m1 := run(base), run(with)
	// Blank the SLO-only aggregates and compare everything else.
	m1.AlertsFired, m1.AlertsResolved, m1.Postmortems = 0, 0, 0
	if !reflect.DeepEqual(m0, m1) {
		t.Errorf("SLO observer perturbed the measured fleet:\noff: %+v\non:  %+v", m0, m1)
	}
}

// TestSLOWithoutMigration: the epoch loop must run on the SLO clock alone.
func TestSLOWithoutMigration(t *testing.T) {
	cfg := testConfig(2)
	cfg.SLO = &SLOConfig{WindowSeconds: 0.25}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var db strings.Builder
	if err := f.WriteTSDB(&db); err != nil {
		t.Fatal(err)
	}
	// Horizon 0.75s on a 0.25s window → barriers at 0.25 and 0.5.
	if !strings.Contains(db.String(), `"last_epoch": 2`) {
		t.Errorf("tsdb export missing epochs:\n%.200s", db.String())
	}
	// The store sampled the fleet-wide registries, not just SLI series.
	if !strings.Contains(db.String(), `"protean_fleet_scrape_interval_quanta"`) {
		t.Error("tsdb export missing sampled registry gauge")
	}
	if st := f.latest().slo; !strings.Contains(st, `"name": "qos-attainment"`) {
		t.Errorf("SLO status missing default specs:\n%s", st)
	}
}

// TestHealthDegraded pins the /healthz degradation conditions: an open
// migration circuit breaker or any recorded conservation violation.
func TestHealthDegraded(t *testing.T) {
	f := &Fleet{}
	if st, _ := f.health(); st != "ok" {
		t.Errorf("fresh fleet health = %s, want ok", st)
	}
	f.publish(func(p *published) { p.contend = &ContendStatus{BreakerState: "open"} })
	if st, reason := f.health(); st != "degraded" || !strings.Contains(reason, "breaker") {
		t.Errorf("open breaker health = %s (%s), want degraded", st, reason)
	}
	f.publish(func(p *published) {
		p.contend = &ContendStatus{BreakerState: "closed"}
		p.audit = &AuditReport{Violations: make([]AuditViolation, 1)}
	})
	if st, reason := f.health(); st != "degraded" || !strings.Contains(reason, "audit") {
		t.Errorf("audit-violation health = %s (%s), want degraded", st, reason)
	}
	f.publish(func(p *published) { p.audit = &AuditReport{} })
	if st, _ := f.health(); st != "ok" {
		t.Errorf("recovered health = %s, want ok", st)
	}
}

// TestExportsSurviveAParser: an audit detail or app name carrying a control
// byte still renders JSON that encoding/json accepts.
func TestExportsSurviveAParser(t *testing.T) {
	odd := "x\x01y"
	rep := &AuditReport{Violations: []AuditViolation{{Kind: "lost", Detail: odd}}}
	st := &ContendStatus{Moves: []MoveRecord{{App: odd, Outcome: "landed"}}}
	for what, doc := range map[string]string{"audit": render(rep.WriteJSON), "contend": render(st.WriteJSON)} {
		var v any
		if err := json.Unmarshal([]byte(doc), &v); err != nil {
			t.Errorf("%s export does not parse: %v\n%s", what, err, doc)
		}
	}
}

// TestBoostBudget pins the alert→migration feedback hook: extra budget is
// granted exactly while the boost spec fires.
func TestBoostBudget(t *testing.T) {
	f := &Fleet{}
	if f.boostBudget() != 0 {
		t.Error("boost without observer")
	}
	db := tsdb.New(tsdb.Config{})
	eng := slo.NewEngine(db, []slo.Spec{{
		Name: "qos-attainment", Good: "g", Total: "t", Objective: 0.9,
		Rules: []slo.BurnRule{{LongEpochs: 1, ShortEpochs: 1, Burn: 1}},
	}})
	f.sloObs = &sloObserver{
		sc:  SLOConfig{BoostBudget: 2},
		eng: eng,
	}
	if f.boostBudget() != 0 {
		t.Error("boost granted while inactive")
	}
	// Drive the spec to firing: 100% errors against a 10% budget.
	db.Observe("g", tsdb.Point{Epoch: 1, T: 1, V: 0})
	db.Observe("t", tsdb.Point{Epoch: 1, T: 1, V: 100})
	eng.Evaluate(1, 1)
	if !eng.Firing("qos-attainment") {
		t.Fatal("spec did not fire")
	}
	if f.boostBudget() != 2 {
		t.Errorf("boost = %d while firing, want 2", f.boostBudget())
	}
	f.sloObs.sc.BoostBudget = 0
	if f.boostBudget() != 0 {
		t.Error("boost granted with BoostBudget 0")
	}
}
