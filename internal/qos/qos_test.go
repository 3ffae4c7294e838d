package qos

import (
	"testing"

	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/workload"
)

// soloIPS measures er-naive's interference-free IPS (the "historical
// profile" reference).
func soloIPS(t *testing.T) float64 {
	t.Helper()
	m := machine.New(machine.Config{Cores: 2})
	b, err := workload.MustByName("er-naive").CompilePlain()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, err := m.Attach(0, b, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	start := p.Counters()
	m.RunSeconds(1.5)
	d := p.Counters().Sub(start)
	return float64(d.Insts) / 1.5
}

// colocate attaches a sensitive external app on core 0 and a host on core 1.
func colocate(t *testing.T, host string) (*machine.Machine, *machine.Process, *machine.Process) {
	t.Helper()
	m := machine.New(machine.Config{Cores: 2})
	extSpec := workload.MustByName("er-naive")
	eb, err := extSpec.CompilePlain()
	if err != nil {
		t.Fatalf("compile ext: %v", err)
	}
	ext, err := m.Attach(0, eb, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach ext: %v", err)
	}
	hb, err := workload.MustByName(host).CompilePlain()
	if err != nil {
		t.Fatalf("compile host: %v", err)
	}
	hp, err := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach host: %v", err)
	}
	return m, hp, ext
}

func TestFluxDetectsContention(t *testing.T) {
	m, host, ext := colocate(t, "lbm")
	f := NewFluxMonitor(m, host, ext, 0, 0)
	f.ReferenceIPS = soloIPS(t)
	m.AddAgent(f)
	m.RunSeconds(3)
	if f.Probes() < 3 {
		t.Fatalf("only %d probes in 3s", f.Probes())
	}
	q, ok := f.QoS()
	if !ok {
		t.Fatal("no QoS estimate")
	}
	if q > 0.85 {
		t.Errorf("QoS vs lbm = %.3f; expected clear degradation", q)
	}
	if q < 0.1 {
		t.Errorf("QoS vs lbm = %.3f; implausibly low", q)
	}
	solo, ok := f.SoloIPS()
	if !ok || solo <= 0 {
		t.Fatal("no solo estimate")
	}
	// QoSOf inverts correctly.
	if got, _ := f.QoSOf(solo); got != 1 {
		t.Errorf("QoSOf(solo) = %.3f, want 1", got)
	}
	if got, _ := f.QoSOf(solo / 2); got < 0.45 || got > 0.55 {
		t.Errorf("QoSOf(solo/2) = %.3f, want ~0.5", got)
	}
}

func TestFluxHighQoSWithGentleHost(t *testing.T) {
	m, host, ext := colocate(t, "bzip2")
	f := NewFluxMonitor(m, host, ext, 0, 0)
	f.ReferenceIPS = soloIPS(t)
	m.AddAgent(f)
	m.RunSeconds(3)
	q, ok := f.QoS()
	if !ok {
		t.Fatal("no QoS estimate")
	}
	if q < 0.7 {
		t.Errorf("QoS vs bzip2 = %.3f; compute-bound host should be gentle", q)
	}
}

func TestFluxProbeSleepsHost(t *testing.T) {
	m, host, ext := colocate(t, "lbm")
	_ = ext
	f := NewFluxMonitor(m, host, ext, 0, 0)
	m.AddAgent(f)
	m.RunSeconds(2)
	c := host.Counters()
	if c.SleepCycles == 0 {
		t.Fatal("flux probes never slept the host")
	}
	// Probe overhead must stay near the configured ratio (1%).
	frac := float64(c.SleepCycles) / float64(c.Cycles)
	if frac > 0.03 {
		t.Errorf("probe overhead %.3f of host time; want ~0.01", frac)
	}
}

func TestFluxQoSNearOneWhenAlone(t *testing.T) {
	// Host exists but is napped to oblivion: QoS should read ~1.
	m, host, ext := colocate(t, "lbm")
	_ = ext
	host.SetNapIntensity(1)
	f := NewFluxMonitor(m, host, ext, 0, 0)
	f.ReferenceIPS = soloIPS(t)
	m.AddAgent(f)
	m.RunSeconds(3)
	q, ok := f.QoS()
	if !ok {
		t.Fatal("no QoS estimate")
	}
	if q < 0.9 {
		t.Errorf("QoS with fully-napped host = %.3f, want ~1", q)
	}
}

func TestThroughputQoS(t *testing.T) {
	spec := workload.MustByName("web-search")
	bin, _ := spec.CompilePlain()

	// Solo capacity first.
	mc := machine.New(machine.Config{Cores: 2})
	pc, _ := mc.Attach(0, bin, spec.ProcessConfig())
	capacity := loadgen.MeasureCapacity(mc, pc, 2000)

	run := func(load float64, withAggressor bool) float64 {
		m := machine.New(machine.Config{Cores: 2})
		b2, _ := spec.CompilePlain()
		p, _ := m.Attach(0, b2, spec.ProcessConfig())
		if withAggressor {
			ab, _ := workload.MustByName("lbm").CompilePlain()
			if _, err := m.Attach(1, ab, machine.ProcessConfig{Restart: true}); err != nil {
				t.Fatalf("attach: %v", err)
			}
		}
		gen := loadgen.NewGenerator(p, loadgen.Constant(load), capacity)
		tq := NewThroughputQoS(m, p, gen)
		m.AddAgent(gen)
		m.AddAgent(tq)
		m.RunSeconds(3)
		q, ok := tq.QoS()
		if !ok {
			t.Fatal("no throughput QoS")
		}
		return q
	}

	if q := run(0.2, false); q < 0.95 {
		t.Errorf("low load alone: QoS %.3f, want ~1", q)
	}
	// Low load + heavy aggressor: per-request slowdown is absorbed by
	// slack — the Figure 16 "web-search is not sensitive at low load"
	// behaviour.
	if q := run(0.2, true); q < 0.9 {
		t.Errorf("low load with aggressor: QoS %.3f, want >= 0.9", q)
	}
	// Near-peak load + aggressor: the service cannot keep up.
	lowQ := run(0.95, true)
	if lowQ > 0.9 {
		t.Errorf("peak load with aggressor: QoS %.3f, want < 0.9", lowQ)
	}
}
