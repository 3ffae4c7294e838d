package fleet

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/contend"
	"repro/internal/datacenter"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// chaosConfig is a small PC3D fleet with every fault class switched on.
func chaosConfig(workers int) Config {
	return Config{
		Servers:        6,
		Instances:      4,
		Webservice:     "web-search",
		Mix:            datacenter.Mix{Name: "test", Apps: []string{"libquantum", "milc"}},
		System:         SystemPC3D,
		Seed:           42,
		Workers:        workers,
		SoloSeconds:    0.5,
		SettleSeconds:  1.5,
		MeasureSeconds: 0.5,
		MaxSites:       3,
		Chaos: &faults.Chaos{
			ServerCrashProb:         0.4,
			RestartDelaySeconds:     0.3,
			CompileFailProb:         0.2,
			RuntimeCrashMTTFSeconds: 1.5,
			QoSDropoutProb:          0.25,
		},
	}
}

// TestChaosDeterministicAcrossWorkerCounts extends the fleet's core
// concurrency contract to fault injection: crash schedules, re-placement,
// supervised runtime restarts, compile faults and sensor dropouts must all
// land identically at any worker count.
func TestChaosDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) Metrics {
		f, err := New(chaosConfig(workers))
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
	concurrent := run(4)
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("chaos metrics diverge across worker counts:\nserial:     %+v\nconcurrent: %+v", serial, concurrent)
	}
}

// TestTelemetrySnapshotDeterministicAcrossWorkerCounts is the telemetry
// plane's determinism contract: the Prometheus text snapshot and the
// merged JSONL event trace must be byte-identical between a serial run
// and an 8-worker run of the same seeded chaos fleet. Events carry only
// simulated-time stamps and merge in server-index order, so goroutine
// interleaving must be invisible in the export.
func TestTelemetrySnapshotDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (string, string) {
		f, err := New(chaosConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
		tel := f.Telemetry()
		return tel.PrometheusText(), render(tel.WriteJSONL)
	}
	prom1, trace1 := run(1)
	prom8, trace8 := run(8)
	if prom1 != prom8 {
		t.Errorf("Prometheus snapshots diverge across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", prom1, prom8)
	}
	if trace1 != trace8 {
		t.Errorf("JSONL traces diverge across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", trace1, trace8)
	}
	if trace1 == "" {
		t.Error("chaos run produced an empty event trace")
	}
}

func TestChaosMetricsSanity(t *testing.T) {
	f, err := New(chaosConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Crashes == 0 {
		t.Fatal("no server crashed at p=0.4 over 6 servers (seed 42); pick a different seed")
	}
	if m.Availability <= 0 || m.Availability > 1 {
		t.Fatalf("Availability = %v", m.Availability)
	}
	if m.Availability >= 1 {
		t.Fatalf("Availability = %v with %d crashes", m.Availability, m.Crashes)
	}
	crashed, absorbed := 0, 0
	for _, r := range m.PerServer {
		if r.Crashed {
			crashed++
			if r.Availability >= 1 {
				t.Errorf("server %d crashed but Availability = %v", r.Index, r.Availability)
			}
		}
		absorbed += r.Absorbed
		if r.QoS < 0 || r.QoS > 1.001 {
			t.Errorf("server %d QoS = %v", r.Index, r.QoS)
		}
		if math.IsNaN(r.QoS) || math.IsNaN(r.Utilization) {
			t.Errorf("server %d has NaN metrics: %+v", r.Index, r)
		}
	}
	if crashed != m.Crashes {
		t.Errorf("PerServer crashes %d != Metrics.Crashes %d", crashed, m.Crashes)
	}
	if absorbed != m.Replacements {
		t.Errorf("absorbed arrivals %d != Replacements %d", absorbed, m.Replacements)
	}
	if m.Replacements+m.UnplacedInstances == 0 && m.Crashes > 0 {
		// Only fails if no crashed server hosted a batch instance, which
		// this seed avoids.
		t.Error("crashes hit batch servers but scheduler neither re-placed nor gave up")
	}
	if m.RuntimeRestarts == 0 {
		t.Error("no supervised runtime restarts at MTTF 1.5s over a 2s run")
	}
	if m.SensorDropouts == 0 {
		t.Error("no sensor dropouts recorded at p=0.25")
	}
}

// TestChaosGracefulDegradation: batch throughput and availability must fall
// as the server-crash rate rises, but the fleet must keep serving (no
// collapse to zero while any server survives).
func TestChaosGracefulDegradation(t *testing.T) {
	run := func(rate float64) Metrics {
		cfg := chaosConfig(3)
		cfg.Chaos = &faults.Chaos{ServerCrashProb: rate}
		if rate == 0 {
			cfg.Chaos = nil
		}
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
	healthy := run(0)
	faulty := run(0.5)
	if healthy.Availability != 1 || healthy.Crashes != 0 {
		t.Fatalf("healthy run reports chaos: %+v", healthy)
	}
	if faulty.Crashes == 0 {
		t.Fatal("no crashes at rate 0.5")
	}
	if faulty.Availability >= healthy.Availability {
		t.Errorf("availability did not degrade: %.3f vs %.3f", faulty.Availability, healthy.Availability)
	}
	if faulty.BatchUnits >= healthy.BatchUnits {
		t.Errorf("batch throughput did not degrade: %.3f vs %.3f", faulty.BatchUnits, healthy.BatchUnits)
	}
	if faulty.BatchUnits <= 0 {
		t.Error("batch throughput collapsed to zero despite survivors")
	}
	if faulty.QoS.Mean <= 0.3 {
		t.Errorf("mean QoS %.3f collapsed under crashes", faulty.QoS.Mean)
	}
}

// TestCrashReplacementOnOneClock: every crash instant is a barrier, with
// migration on or off, so a victim lands at exactly crash +
// RestartDelaySeconds on both paths — including a crash in the last
// migration window, which a run that reacted only at window barriers would
// never settle.
func TestCrashReplacementOnOneClock(t *testing.T) {
	cfg := Config{
		Servers:        6,
		Instances:      3,
		Webservice:     "web-search",
		Mix:            datacenter.Mix{Name: "test", Apps: []string{"er-naive"}},
		System:         SystemNone,
		Policy:         RoundRobin{},
		Seed:           7,
		Workers:        2,
		SoloSeconds:    0.5,
		SettleSeconds:  0.5,
		MeasureSeconds: 1.5,
		Chaos:          &faults.Chaos{Seed: 3, ServerCrashProb: 0.6, RestartDelaySeconds: 0.05},
	}
	run := func(cfg Config) (Metrics, []float64) {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		var landed []float64
		for _, e := range f.Telemetry().Events() {
			if e.Kind == telemetry.EvReplacement {
				landed = append(landed, float64(e.At)/10e6)
			}
		}
		return m, landed
	}
	bare, bareAt := run(cfg)
	// A migration clock whose detector never flags: only the crash clock
	// may differ between the two runs.
	cfg.Migration = &MigrationConfig{WindowSeconds: 0.5, Detector: contend.Config{Enter: 1e9}}
	mig, migAt := run(cfg)
	t.Logf("bare %d replaced, %d unplaced, landings %v; migration %d replaced, %d unplaced, landings %v",
		bare.Replacements, bare.UnplacedInstances, bareAt, mig.Replacements, mig.UnplacedInstances, migAt)
	want := []float64{0.403, 1.920}
	for name, got := range map[string][]float64{"without migration": bareAt, "with migration": migAt} {
		if len(got) != len(want) {
			t.Errorf("%s: landings at %v s, want ≈%v", name, got, want)
			continue
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.002 {
				t.Errorf("%s: landing %d at %.4f s, want ≈%.3f", name, i, got[i], want[i])
			}
		}
	}
	if bare.Replacements != len(want) || mig.Replacements != len(want) || mig.UnplacedInstances != bare.UnplacedInstances {
		t.Errorf("replaced/unplaced = %d/%d with migration, %d/%d without; want %d replaced on both",
			mig.Replacements, mig.UnplacedInstances, bare.Replacements, bare.UnplacedInstances, len(want))
	}
}
