package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/contend"
	"repro/internal/datacenter"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/slo"
)

// testConfig is a deliberately small diurnal fleet: cheap enough for the
// race detector, rich enough to exercise calibration, contention-aware
// placement, phase-offset load gating and aggregation.
func testConfig(workers int) Config {
	return Config{
		Servers:            5,
		Instances:          3,
		Webservice:         "web-search",
		Mix:                datacenter.Mix{Name: "test", Apps: []string{"libquantum", "milc"}},
		System:             SystemNone,
		Policy:             ContentionAware{},
		Seed:               42,
		Workers:            workers,
		SoloSeconds:        0.5,
		SettleSeconds:      0.25,
		MeasureSeconds:     0.5,
		Trace:              loadgen.Diurnal{Period: 2, Low: 0.3, High: 0.9},
		PhaseSpreadSeconds: 1,
	}
}

// TestFleetDeterministicAcrossWorkerCounts is the core concurrency
// contract: a fixed seed must produce bit-identical cluster metrics no
// matter how many workers drive the simulations.
func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) Metrics {
		f, err := New(testConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial := run(1)
	concurrent := run(3)
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("metrics diverge across worker counts:\nserial:     %+v\nconcurrent: %+v", serial, concurrent)
	}
}

func TestFleetMetricsSanity(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Servers != 5 || m.Instances != 3 {
		t.Fatalf("sizes = %d servers / %d instances", m.Servers, m.Instances)
	}
	if len(m.PerServer) != 5 {
		t.Fatalf("want 5 per-server results, got %d", len(m.PerServer))
	}
	batch := 0
	for i, r := range m.PerServer {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if r.QoS <= 0 || r.QoS > 1.001 {
			t.Fatalf("server %d QoS = %v", i, r.QoS)
		}
		if r.App != "" {
			batch++
			if r.Utilization <= 0 {
				t.Fatalf("server %d (%s) utilization = %v", i, r.App, r.Utilization)
			}
		}
	}
	if batch != 3 {
		t.Fatalf("want 3 batch-hosting servers, got %d", batch)
	}
	if m.BatchUnits <= 0 || m.BatchUnits > 3 {
		t.Fatalf("BatchUnits = %v", m.BatchUnits)
	}
	if m.EnergyEfficiencyRatio <= 1 {
		// Consolidating batch work onto webservice machines must beat
		// powering dedicated batch servers under the linear power model.
		t.Fatalf("EnergyEfficiencyRatio = %v, want > 1", m.EnergyEfficiencyRatio)
	}
	if len(m.PerApp) != 2 {
		t.Fatalf("PerApp = %v, want both mix apps", m.PerApp)
	}
	// The diurnal gate keeps offered load well under capacity, so the
	// webservices should be serving nearly everything offered.
	if m.QoS.Min <= 0.5 {
		t.Fatalf("QoS.Min = %v, implausibly low for an ungated co-location at these loads", m.QoS.Min)
	}
}

// TestFleetPlacementRespectsPolicy checks the placement plumbing end to
// end: contention-aware must send the highest-pressure app to the server
// with the lowest phase-offset load.
func TestFleetPlacementRespectsPolicy(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	placement := f.Placement()
	if len(placement) != 3 {
		t.Fatalf("placement = %v", placement)
	}
	instances := f.Instances()
	// Recompute the expected assignment from the published slots and
	// measured pressures.
	want := ContentionAware{}.Place(instances, f.slots)
	if !reflect.DeepEqual(placement, want) {
		t.Fatalf("placement %v does not match policy output %v", placement, want)
	}
}

// TestConfigValidation holds New to rejecting every configuration that
// would fail or spin later: a negative duration wraps to a huge cycle
// target, a NaN never reaches the horizon, an epoch window under one
// machine quantum never advances a server. New only validates, so no
// server is ever constructed.
func TestConfigValidation(t *testing.T) {
	mc := machine.New(machine.Config{Cores: 1}).Config()
	if got := float64(mc.QuantumCycles) / mc.FreqHz; got != quantumSeconds {
		t.Fatalf("machine quantum is %v s, validate assumes %v s", got, quantumSeconds)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Config)
		want string // substring of the error; "" = must be accepted
	}{
		{"defaults", func(c *Config) {}, ""},
		{"all stages on", func(c *Config) {
			c.Chaos, c.Migration, c.SLO = &faults.Chaos{}, &MigrationConfig{}, &SLOConfig{}
		}, ""},
		{"zero servers", func(c *Config) { c.Servers = 0 }, "at least one server"},
		{"more instances than servers", func(c *Config) { c.Instances = 3 }, "exceed"},
		{"negative instances", func(c *Config) { c.Instances = -1 }, "negative"},
		{"unknown webservice", func(c *Config) { c.Webservice = "no-such-app" }, "unknown webservice"},
		{"unknown mix app", func(c *Config) { c.Mix.Apps = []string{"milc", "no-such-app"} }, "unknown app"},
		{"target above one", func(c *Config) { c.Target = 1.5 }, "target"},
		{"negative target", func(c *Config) { c.Target = -0.5 }, "target"},
		{"NaN target", func(c *Config) { c.Target = nan }, "target"},
		{"negative settle", func(c *Config) { c.SettleSeconds = -1 }, "SettleSeconds"},
		{"infinite settle", func(c *Config) { c.SettleSeconds = inf }, "SettleSeconds"},
		{"NaN measure", func(c *Config) { c.MeasureSeconds = nan }, "MeasureSeconds"},
		{"negative measure", func(c *Config) { c.MeasureSeconds = -1 }, "MeasureSeconds"},
		{"negative solo", func(c *Config) { c.SoloSeconds = -0.5 }, "SoloSeconds"},
		{"sub-quantum measure", func(c *Config) { c.MeasureSeconds = quantumSeconds / 2 }, ""},
		{"NaN phase spread", func(c *Config) { c.PhaseSpreadSeconds = nan }, "PhaseSpreadSeconds"},
		{"negative restart delay", func(c *Config) { c.Chaos = &faults.Chaos{RestartDelaySeconds: -1} }, "RestartDelaySeconds"},
		{"sub-quantum migration window", func(c *Config) { c.Migration = &MigrationConfig{WindowSeconds: 1e-7} }, "Migration.WindowSeconds"},
		{"NaN migration window", func(c *Config) { c.Migration = &MigrationConfig{WindowSeconds: nan} }, "Migration.WindowSeconds"},
		{"infinite blackout", func(c *Config) { c.Migration = &MigrationConfig{BlackoutSeconds: inf} }, "BlackoutSeconds"},
		{"sub-quantum SLO window", func(c *Config) { c.SLO = &SLOConfig{WindowSeconds: 1e-7} }, "SLO.WindowSeconds"},
		{"one-quantum SLO window", func(c *Config) { c.SLO = &SLOConfig{WindowSeconds: quantumSeconds} }, ""},
	}
	for _, tc := range cases {
		cfg := Config{Servers: 2, Webservice: "web-search", Mix: datacenter.Mix{Name: "test", Apps: []string{"milc"}}}
		tc.edit(&cfg)
		_, err := New(cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestWebserviceAlsoInMix runs a PC3D fleet whose webservice is also a
// batch app of its mix: the batch instance of that app still attaches its
// protean binary, so the runtime has IR to search.
func TestWebserviceAlsoInMix(t *testing.T) {
	mix, _ := datacenter.MixByName("WL2")
	f, err := New(Config{
		Servers: 2, Webservice: "soplex", Mix: mix, System: SystemPC3D,
		Seed: 1, Workers: 1, SoloSeconds: 0.1, SettleSeconds: 0.1, MeasureSeconds: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.PerApp["soplex"] <= 0 {
		t.Errorf("soplex batch utilization %v, want > 0", m.PerApp["soplex"])
	}
}

// TestSLOSpecValidation holds New to rejecting an SLO spec that could
// never page — a NaN or out-of-range objective, a rule with no long window,
// a NaN, infinite or non-positive burn threshold — while the defaults, an
// objective of exactly 1 and custom specs that can page are accepted.
func TestSLOSpecValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	spec := func(objective float64, rules ...slo.BurnRule) []slo.Spec {
		return []slo.Spec{{Name: "custom", Good: SeriesQoSGood, Total: SeriesQoSTotal, Objective: objective, Rules: rules}}
	}
	rule := func(long int, burn float64) slo.BurnRule {
		return slo.BurnRule{LongEpochs: long, Burn: burn, Severity: "page"}
	}
	cases := []struct {
		name  string
		specs []slo.Spec
		want  string // substring of the error; "" = must be accepted
	}{
		{"defaults", nil, ""},
		{"default specs explicit", DefaultSLOSpecs(), ""},
		{"objective one", spec(1, rule(1, 1)), ""},
		{"no rules", spec(0.99), ""},
		{"short window defaulted", spec(0.99, rule(24, 14.4)), ""},
		{"NaN objective", spec(nan, rule(4, 2)), "objective"},
		{"zero objective", spec(0, rule(4, 2)), "objective"},
		{"negative objective", spec(-0.5, rule(4, 2)), "objective"},
		{"objective above one", spec(1.01, rule(4, 2)), "objective"},
		{"zero long window", spec(0.99, rule(0, 2)), "LongEpochs"},
		{"negative long window", spec(0.99, rule(-3, 2)), "LongEpochs"},
		{"NaN burn", spec(0.99, rule(4, nan)), "burn"},
		{"infinite burn", spec(0.99, rule(4, inf)), "burn"},
		{"zero burn", spec(0.99, rule(4, 0)), "burn"},
		{"negative burn", spec(0.99, rule(4, -1)), "burn"},
		{"second rule bad", spec(0.99, rule(4, 2), rule(0, 2)), "rule 1"},
	}
	for _, tc := range cases {
		cfg := Config{Servers: 2, Webservice: "web-search", Mix: datacenter.Mix{Name: "test", Apps: []string{"milc"}},
			SLO: &SLOConfig{Specs: tc.specs}}
		_, err := New(cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		case tc.want != "" && !strings.HasPrefix(err.Error(), "fleet: SLO.Specs[0]"):
			t.Errorf("%s: error %q does not name the spec", tc.name, err)
		}
	}
}

// TestChaosProbabilityValidation holds New to rejecting every fault
// probability outside [0, 1], NaN included: above one a fault would fire
// always, below zero or NaN never, and neither is what the flag said.
func TestChaosProbabilityValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  float64
		set  func(*faults.Chaos, float64)
	}{
		{"ServerCrashProb", 1.5, func(c *faults.Chaos, v float64) { c.ServerCrashProb = v }},
		{"CompileFailProb", -0.1, func(c *faults.Chaos, v float64) { c.CompileFailProb = v }},
		{"QoSDropoutProb", math.NaN(), func(c *faults.Chaos, v float64) { c.QoSDropoutProb = v }},
		{"MoveDetachFailProb", math.Inf(1), func(c *faults.Chaos, v float64) { c.MoveDetachFailProb = v }},
		{"MoveLandFailProb", 1.0000001, func(c *faults.Chaos, v float64) { c.MoveLandFailProb = v }},
		{"SampleCorruptProb", math.Inf(-1), func(c *faults.Chaos, v float64) { c.SampleCorruptProb = v }},
		{"SampleStaleProb", math.NaN(), func(c *faults.Chaos, v float64) { c.SampleStaleProb = v }},
	} {
		for _, v := range []float64{0, 1, tc.bad} {
			ch := &faults.Chaos{}
			tc.set(ch, v)
			cfg := Config{Servers: 2, Webservice: "web-search", Mix: datacenter.Mix{Name: "test", Apps: []string{"milc"}}, Chaos: ch}
			_, err := New(cfg)
			switch valid := v == 0 || v == 1; {
			case valid && err != nil:
				t.Errorf("%s = %v: rejected: %v", tc.name, v, err)
			case !valid && err == nil:
				t.Errorf("%s = %v: accepted", tc.name, v)
			case !valid && !strings.Contains(err.Error(), "Chaos."+tc.name):
				t.Errorf("%s = %v: error %q does not name the field", tc.name, v, err)
			}
		}
	}
}

// TestSeedChangesMachineNotSchedule: Config.Seed is connected. On a
// control-plane fleet (load-gated diurnal trace, chaos, migration, SLOs)
// with the fault schedule pinned by Chaos.Seed, two fleet seeds crash the
// same servers and land the same number of migrations, but every machine
// is seeded from Config.Seed and er-naive draws its random addresses from
// that stream, so the servers' measured utilization differs.
func TestSeedChangesMachineNotSchedule(t *testing.T) {
	run := func(seed int64) Metrics {
		const window = 0.0625
		f, err := New(Config{
			Servers: 12, Instances: 4, Webservice: "web-search",
			Mix:    datacenter.Mix{Name: "contended", Apps: []string{"er-naive", "milc"}},
			System: SystemNone, Policy: RoundRobin{},
			Seed: seed, Workers: 2,
			SoloSeconds: 0.25, SettleSeconds: 0.5, MeasureSeconds: 0.125,
			Trace:              loadgen.Offset{Trace: loadgen.Diurnal{Period: 60, Low: 0.25, High: 0.95}, By: 24},
			PhaseSpreadSeconds: 60,
			Chaos: &faults.Chaos{
				Seed: 13, ServerCrashProb: 0.15, RestartDelaySeconds: window,
				MoveDetachFailProb: 0.10, MoveLandFailProb: 0.30, MoveStallMaxSeconds: window / 2,
				SampleCorruptProb: 0.02, SampleStaleProb: 0.05, QoSDropoutProb: 0.05,
			},
			Migration: &MigrationConfig{
				WindowSeconds: window, BlackoutSeconds: window, BudgetPerEpoch: 2, MaxLandAttempts: 2,
				Detector: contend.Config{Window: 3, MinSamples: 2, Cooldown: 2, Quantile: 0.75, Enter: 1.25, Exit: 1.05},
				Breaker:  contend.BreakerConfig{FailureThreshold: 2, CooldownEpochs: 3},
			},
			SLO: &SLOConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(1), run(2)
	for i := range a.PerServer {
		if a.PerServer[i].Crashed != b.PerServer[i].Crashed {
			t.Errorf("server %d: crashed %v at seed 1, %v at seed 2; Chaos.Seed alone fixes the schedule",
				i, a.PerServer[i].Crashed, b.PerServer[i].Crashed)
		}
	}
	if a.Crashes != 1 || b.Crashes != 1 || a.Migrations != 3 || b.Migrations != 3 {
		t.Errorf("crashes %d/%d, migrations %d/%d at seeds 1/2, want 1/1 and 3/3",
			a.Crashes, b.Crashes, a.Migrations, b.Migrations)
	}
	ua, ub := a.PerServer[7].Utilization, b.PerServer[7].Utilization
	if math.Abs(ua-0.3714) > 5e-5 || math.Abs(ub-0.3661) > 5e-5 {
		t.Errorf("server 7 utilization %.4f / %.4f at seeds 1/2, want 0.3714 / 0.3661", ua, ub)
	}
}
