package sampling

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pcc"
	"repro/internal/progbin"
)

// twoHotFuncs builds a program spending ~90% of time in "heavy" and ~10%
// in "light".
func twoHotFuncs(t testing.TB) *progbin.Binary {
	t.Helper()
	mb := ir.NewModuleBuilder("twohot")
	mb.Global("g", 1<<16)

	heavy := mb.Function("heavy")
	heavy.Loop(900, func() {
		heavy.Load(ir.Access{Global: "g", Pattern: ir.Seq, Stride: 64})
		heavy.Work(2)
	})
	heavy.Return()

	light := mb.Function("light")
	light.Loop(100, func() {
		light.Load(ir.Access{Global: "g", Pattern: ir.Seq, Stride: 64})
		light.Work(2)
	})
	light.Return()

	cold := mb.Function("cold")
	cold.Loop(10, func() { cold.Work(1) })
	cold.Return()

	main := mb.Function("main")
	main.Loop(1<<40, func() {
		main.Call("heavy")
		main.Call("light")
	})
	main.Return()
	mb.SetEntry("main")
	b, err := pcc.Compile(mb.MustBuild(), pcc.Options{Protean: true})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return b
}

func TestPCSamplerHotness(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	p, err := m.Attach(0, twoHotFuncs(t), machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	s := NewPCSampler(p, m.Config().QuantumCycles)
	m.AddAgent(s)
	m.RunQuanta(2000)

	prof := s.Lifetime()
	if prof.Total() == 0 {
		t.Fatal("no samples taken")
	}
	hot := prof.Hottest()
	if len(hot) == 0 || hot[0] != "heavy" {
		t.Fatalf("hottest = %v, want heavy first", hot)
	}
	if !prof.Covered("heavy") || !prof.Covered("light") {
		t.Error("hot functions not covered")
	}
	if prof.Covered("cold") {
		t.Error("uncalled function received samples")
	}
	norm := prof.Normalized()
	if norm["heavy"] < 0.6 {
		t.Errorf("heavy fraction = %.2f, want > 0.6", norm["heavy"])
	}
	if norm["heavy"] <= norm["light"] {
		t.Error("heavy not hotter than light")
	}
}

func TestPCSamplerWindowReset(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	p, _ := m.Attach(0, twoHotFuncs(t), machine.ProcessConfig{Restart: true})
	s := NewPCSampler(p, m.Config().QuantumCycles)
	m.AddAgent(s)
	m.RunQuanta(100)
	if s.Window().Total() == 0 {
		t.Fatal("window empty after run")
	}
	s.ResetWindow()
	if s.Window().Total() != 0 {
		t.Error("window not cleared")
	}
	if s.Lifetime().Total() == 0 {
		t.Error("lifetime cleared by window reset")
	}
	m.RunQuanta(100)
	if s.Window().Total() == 0 {
		t.Error("window not refilled after reset")
	}
}

func TestPCSamplerInterval(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	p, _ := m.Attach(0, twoHotFuncs(t), machine.ProcessConfig{Restart: true})
	// Interval of 10 quanta: ~1 sample per 10 ticks.
	s := NewPCSampler(p, m.Config().QuantumCycles*10)
	m.AddAgent(s)
	m.RunQuanta(100)
	if got := s.Window().Total(); got < 9 || got > 12 {
		t.Errorf("samples = %d, want ~10", got)
	}
}

func TestMeterRates(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	p, _ := m.Attach(0, twoHotFuncs(t), machine.ProcessConfig{Restart: true})
	mt := NewMeter(p)
	mt.Read(m) // establish baseline
	m.RunQuanta(1000)
	r := mt.Read(m)
	if r.Seconds <= 0 || r.IPS <= 0 || r.BPS <= 0 {
		t.Fatalf("bad reading: %+v", r)
	}
	if r.IPS <= r.BPS {
		t.Error("IPS should exceed BPS (not every instruction is a branch)")
	}
	if r.IPC <= 0 || r.IPC > 2 {
		t.Errorf("IPC = %.2f outside plausible range", r.IPC)
	}
	// Second read over an empty window.
	if r2 := mt.Read(m); r2.Seconds != 0 || r2.IPS != 0 {
		t.Errorf("zero-window read = %+v", r2)
	}
}

func TestMeterNapReducesIPSNotIPC(t *testing.T) {
	run := func(nap float64) Reading {
		m := machine.New(machine.Config{Cores: 1})
		p, _ := m.Attach(0, twoHotFuncs(t), machine.ProcessConfig{Restart: true})
		p.SetNapIntensity(nap)
		mt := NewMeter(p)
		mt.Read(m)
		m.RunQuanta(2000)
		return mt.Read(m)
	}
	full := run(0)
	half := run(0.5)
	if half.IPS > full.IPS*0.65 || half.IPS < full.IPS*0.35 {
		t.Errorf("napped IPS %.0f vs full %.0f, want ~half", half.IPS, full.IPS)
	}
	// IPC is per busy cycle and should be roughly unchanged.
	if half.IPC < full.IPC*0.85 || half.IPC > full.IPC*1.15 {
		t.Errorf("napped IPC %.3f vs full %.3f, want similar", half.IPC, full.IPC)
	}
}

func TestProfileHelpers(t *testing.T) {
	p := Profile{"a": 5, "b": 10, "c": 5}
	if p.Total() != 20 {
		t.Errorf("Total = %d", p.Total())
	}
	hot := p.Hottest()
	if hot[0] != "b" || hot[1] != "a" || hot[2] != "c" {
		t.Errorf("Hottest = %v (ties must break by name)", hot)
	}
	c := p.Clone()
	c["a"] = 99
	if p["a"] != 5 {
		t.Error("Clone aliases original")
	}
	if n := (Profile{}).Normalized(); len(n) != 0 {
		t.Error("empty profile normalizes to non-empty")
	}
}
