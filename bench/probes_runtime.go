package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pc3d"
	"repro/internal/sampling"
)

// runtimeProbes times the protean runtime from outside: attaching to a
// host, producing a variant (clone, transform, lower, verify, install),
// the per-quantum tick, PC sampling, and PC3D's search-space heuristics.
func (p *prober) runtimeProbes() error {
	quanta := p.quanta()
	bins := p.mix.bins
	var err error
	// host builds a quad-core machine with the co-location pair the
	// harness runs: web-search on core 0, protean libquantum on core 1.
	host := func() (*machine.Machine, *machine.Process) {
		m := machine.New(machine.Config{Cores: 4, Seed: p.seed})
		if _, e := m.Attach(0, bins["web-search"], machine.ProcessConfig{Restart: true}); e != nil {
			err = e
		}
		h, e := m.Attach(1, bins["libquantum+protean"], machine.ProcessConfig{Restart: true})
		if e != nil {
			err = e
		}
		return m, h
	}

	const attaches = 16
	p.set("core.attach_us", 1e6*p.time("core.New", 3, func() func() {
		m, h := host()
		return func() {
			for i := 0; i < attaches; i++ {
				if _, e := core.New(core.Config{Machine: m, Host: h, RuntimeCore: 2}); e != nil {
					err = e
				}
			}
		}
	})/attaches, "us")
	if err != nil {
		return err
	}

	// Queue jobs back to back, let their modelled compile latency pass
	// with the runtime unregistered, then time the one Tick that finishes
	// them all: host cost of the compiler backend without any simulation.
	const jobs = 32
	var simCycles uint64
	variantCS := p.time("core.Runtime.Tick", 3, func() func() {
		m, h := host()
		rt, e := core.New(core.Config{Machine: m, Host: h, RuntimeCore: 2})
		if e != nil {
			err = e
			return func() {}
		}
		all := make(map[int]bool)
		for _, ld := range rt.IR().Loads() {
			all[ld.ID] = true
		}
		funcs := rt.IR().Funcs
		done := 0
		for i := 0; i < jobs; i++ {
			e := rt.RequestVariant(funcs[i%len(funcs)].Name, core.NTTransform(all), nil, func(v *core.Variant, e error) {
				if e == nil {
					done++
				}
			})
			if e != nil {
				err = e
			}
		}
		m.RunSeconds(float64(jobs)*0.004 + 0.002)
		return func() {
			rt.Tick(m)
			if done != jobs && err == nil {
				err = fmt.Errorf("core: %d of %d variant jobs finished", done, jobs)
			}
			simCycles = rt.CyclesUsed()
		}
	})
	if err != nil {
		return err
	}
	p.set("core.variant_host_us", 1e6*variantCS/jobs, "us")
	p.set("core.variant_sim_cycles", float64(simCycles)/jobs, "cycles")

	// The same machine with no agent, with a PC sampler, with a runtime.
	tick := func(span string, agent func(m *machine.Machine, h *machine.Process) machine.Agent) float64 {
		return p.time(span, 3, func() func() {
			m, h := host()
			if a := agent(m, h); a != nil {
				m.AddAgent(a)
			}
			return func() { m.RunQuanta(quanta) }
		})
	}
	bare := tick("machine.RunQuanta", func(*machine.Machine, *machine.Process) machine.Agent { return nil })
	sampled := tick("sampling.PCSampler.Tick", func(m *machine.Machine, h *machine.Process) machine.Agent {
		return sampling.NewPCSampler(h, m.Config().QuantumCycles)
	})
	attached := tick("core.Runtime.Tick", func(m *machine.Machine, h *machine.Process) machine.Agent {
		rt, e := core.New(core.Config{Machine: m, Host: h, RuntimeCore: 2})
		if e != nil {
			err = e
			return nil
		}
		return rt
	})
	if err != nil {
		return err
	}
	p.set("sampling.tick_overhead_pct", overheadPct(sampled, bare), "%")
	p.set("core.tick_overhead_pct", overheadPct(attached, bare), "%")

	const builds = 32
	p.set("pc3d.search_space_ms", 1e3*p.time("pc3d.BuildSearchSpace", 3, func() func() {
		m, h := host()
		s := sampling.NewPCSampler(h, m.Config().QuantumCycles)
		m.AddAgent(s)
		m.RunQuanta(quanta)
		mod, e := h.Binary().DecodeIR()
		if e != nil {
			err = e
			return func() {}
		}
		prof := s.DeepLifetime()
		return func() {
			for i := 0; i < builds; i++ {
				pc3d.BuildSearchSpace(mod, prof)
			}
		}
	})/builds, "ms")
	return err
}
