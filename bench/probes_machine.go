package main

import (
	"repro/internal/dbt"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// quanta is how far a machine probe advances: 0.25 simulated seconds, 0.02
// in a smoke run.
func (p *prober) quanta() int {
	if p.smoke {
		return 20
	}
	return 250
}

// machineProbes times RunQuanta per access class — the three engine-mix
// machines plus a lone service gated at 30 % load, whose quanta are mostly
// idle fast-forward — and construction, telemetry, the DBT overlay and the
// interp oracle.
func (p *prober) machineProbes() error {
	quanta := p.quanta()
	bins := p.mix.bins
	var err error

	// run times RunQuanta on a fresh machine of the set and returns the
	// cost, the instructions retired, and the cycles its occupied cores
	// were given.
	run := func(set mixSet, engine string, reps int) (cs float64, insts uint64, coreCycles float64) {
		cs = p.time("machine.RunQuanta."+set.name, reps, func() func() {
			mm, e := p.mix.buildSet(set, engine)
			if e != nil {
				err = e
				return func() {}
			}
			return func() {
				mm.m.RunQuanta(quanta)
				insts = mm.insts()
				coreCycles = float64(len(mm.procs)) * float64(quanta) * float64(mm.m.Config().QuantumCycles)
			}
		})
		return
	}
	classes := append(append([]mixSet(nil), mixSets...), mixSet{"gated", [4]string{"web-search@30"}})
	var streamRate float64
	for _, set := range classes {
		cs, insts, coreCycles := run(set, "", 3)
		if err != nil {
			return err
		}
		rate := float64(insts) / 1e6 / cs
		p.set("machine.minst_per_cs."+set.name, rate, "Minst/cs")
		p.set("machine.quantum_us."+set.name, 1e6*cs/float64(quanta), "us")
		p.set("machine.sim_ipc."+set.name, float64(insts)/coreCycles, "inst/cycle")
		if set.name == "stream" {
			streamRate = rate
		}
	}
	// The oracle on the streaming machine, where the engines differ most
	// (cache-bound classes spend their time in the shared walk).
	cs, insts, _ := run(mixSets[0], machine.EngineInterp, 1)
	if err != nil {
		return err
	}
	interpRate := float64(insts) / 1e6 / cs
	p.set("machine.interp_minst_per_cs", interpRate, "Minst/cs")
	p.set("machine.engine_speedup", streamRate/interpRate, "ratio")

	// gobmk under the DynamoRIO cost overlay, Figure 4's baseline.
	var dbtInsts uint64
	cs = p.time("machine.RunQuanta.dbt", 3, func() func() {
		m := machine.New(machine.Config{Cores: 1, Seed: p.seed})
		proc, e := m.Attach(0, bins["gobmk"], machine.ProcessConfig{Restart: true, DBT: dbt.DynamoRIO()})
		if e != nil {
			err = e
			return func() {}
		}
		return func() {
			m.RunQuanta(quanta)
			dbtInsts = proc.Counters().Insts
		}
	})
	if err != nil {
		return err
	}
	p.set("machine.dbt_minst_per_cs", float64(dbtInsts)/1e6/cs, "Minst/cs")

	// A live registry against a nil one, on one streaming process.
	telemetryRun := func(reg func() *telemetry.Registry) float64 {
		return p.time("machine.RunQuanta.telemetry", 3, func() func() {
			m := machine.New(machine.Config{Cores: 2, Seed: p.seed, Telemetry: reg()})
			if _, e := m.Attach(0, bins["libquantum"], machine.ProcessConfig{Restart: true}); e != nil {
				err = e
			}
			return func() { m.RunQuanta(quanta) }
		})
	}
	off := telemetryRun(func() *telemetry.Registry { return nil })
	on := telemetryRun(func() *telemetry.Registry { return telemetry.New(telemetry.Config{}) })
	if err != nil {
		return err
	}
	p.set("machine.telemetry_overhead_pct", overheadPct(on, off), "%")

	const news = 8
	p.set("machine.new_us", 1e6*p.time("machine.New", 5, func() func() {
		return func() {
			for i := 0; i < news; i++ {
				machine.New(machine.Config{Cores: 4, Seed: p.seed})
			}
		}
	})/news, "us")
	p.set("machine.attach_us", 1e6*p.time("machine.Attach", 5, func() func() {
		var ms [news]*machine.Machine
		for i := range ms {
			ms[i] = machine.New(machine.Config{Cores: 4, Seed: p.seed})
		}
		return func() {
			for _, m := range ms {
				for core := 0; core < 4; core++ {
					if _, e := m.Attach(core, bins["libquantum"], machine.ProcessConfig{Restart: true}); e != nil {
						err = e
					}
				}
			}
		}
	})/(4*news), "us")
	return err
}
