package reqos

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/qos"
	"repro/internal/workload"
)

func soloIPS(t *testing.T, name string) float64 {
	t.Helper()
	spec := workload.MustByName(name)
	bin, err := spec.CompilePlain()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := machine.New(machine.Config{Cores: 2})
	p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	m.RunSeconds(0.5)
	c0 := p.Counters()
	m.RunSeconds(1.5)
	return float64(p.Counters().Sub(c0).Insts) / 1.5
}

func colocate(t *testing.T, host string) (*machine.Machine, *machine.Process, *machine.Process, *qos.FluxMonitor) {
	t.Helper()
	ref := soloIPS(t, "er-naive")
	m := machine.New(machine.Config{Cores: 2})
	eb, _ := workload.MustByName("er-naive").CompilePlain()
	ext, err := m.Attach(0, eb, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach ext: %v", err)
	}
	hb, _ := workload.MustByName(host).CompilePlain()
	hp, err := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach host: %v", err)
	}
	flux := qos.NewFluxMonitor(m, hp, ext, 0, 0)
	flux.ReferenceIPS = ref
	m.AddAgent(flux)
	return m, hp, ext, flux
}

func TestReQoSProtectsQoS(t *testing.T) {
	m, host, ext, flux := colocate(t, "lbm")
	ref := flux.ReferenceIPS
	c := New(Config{Host: host, Source: flux, Target: 0.9})
	m.AddAgent(c)
	m.RunSeconds(6) // converge
	e0 := ext.Counters()
	m.RunSeconds(2)
	trueQoS := float64(ext.Counters().Sub(e0).Insts) / 2 / ref
	if trueQoS < 0.82 {
		t.Errorf("true QoS = %.3f under ReQoS, target 0.9", trueQoS)
	}
	if host.NapIntensity() < 0.2 {
		t.Errorf("nap = %.2f; lbm should need substantial napping", host.NapIntensity())
	}
	if c.Adjustments() == 0 {
		t.Error("controller never adjusted")
	}
}

func TestReQoSRelaxesWhenGentle(t *testing.T) {
	m, host, _, flux := colocate(t, "bzip2")
	c := New(Config{Host: host, Source: flux, Target: 0.6})
	m.AddAgent(c)
	m.RunSeconds(6)
	if host.NapIntensity() > 0.1 {
		t.Errorf("nap = %.2f against a gentle host at a loose target", host.NapIntensity())
	}
}

func TestReQoSNapRecoversAfterTransient(t *testing.T) {
	m, host, _, flux := colocate(t, "lbm")
	c := New(Config{Host: host, Source: flux, Target: 0.9})
	m.AddAgent(c)
	m.RunSeconds(6)
	converged := host.NapIntensity()
	// Force an excessive nap; the controller should relax back down.
	host.SetNapIntensity(1)
	m.RunSeconds(6)
	relaxed := host.NapIntensity()
	if relaxed > 0.99 {
		t.Errorf("nap stuck at %.2f after transient", relaxed)
	}
	_ = converged
}

func TestReQoSNoQoSSourceNoAction(t *testing.T) {
	m, host, _, _ := colocate(t, "lbm")
	src := staticSource{}
	c := New(Config{Host: host, Source: src, Target: 0.9})
	m.AddAgent(c)
	m.RunSeconds(1)
	if host.NapIntensity() != 0 || c.Adjustments() != 0 {
		t.Error("controller acted without a QoS estimate")
	}
}

type staticSource struct{}

func (staticSource) QoS() (float64, bool) { return 0, false }
