package main

import (
	"fmt"

	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/pcc"
	"repro/internal/progbin"
	"repro/internal/workload"
)

// mixQuanta is the RunQuanta step: one slice is 40 quanta, about 10 ms of
// host time, because short slices are what make the estimator tight.
const mixQuanta = 40

// mixSet is one quad-core machine of the engine-mix workload: four
// processes of one memory-access class sharing an LLC.
type mixSet struct {
	name string
	apps [4]string
}

// The sets split host time by access class, because cache + machine are
// 85-95 % of host time in every profile of this repository and the cost of
// a simulated instruction differs several-fold between classes.
//
//   - "+nt" marks a plain binary with every load non-temporal, as
//     BenchmarkAblationNTPolicy builds it, so the mixed (NT) replay path
//     runs beside the plain-load path;
//   - "+protean" marks a protean binary, so calls dispatch through the EVT;
//   - "@30" marks a request-gated process driven at 30 % of its capacity.
var mixSets = []mixSet{
	{"stream", [4]string{"libquantum", "lbm", "milc", "libquantum+nt"}},
	{"chase", [4]string{"mcf", "er-naive", "soplex", "sphinx3"}},
	{"resident", [4]string{"gobmk+protean", "sjeng", "povray", "web-search@30"}},
}

// engineMix advances three quad-core machines, built directly on
// machine.New/Attach with no compiler, runtime or fleet layer in the loop,
// in RunQuanta(mixQuanta) slices.
type engineMix struct {
	seed   int64
	slices int // per machine
	tr     *tracer

	// Set-up products, reused by every round: binaries are immutable (each
	// process copies its code).
	bins    map[string]*progbin.Binary
	peakQPS float64

	last []*mixMachine
}

type mixMachine struct {
	set   mixSet
	m     *machine.Machine
	procs []*machine.Process
}

func newEngineMix(o options, tr *tracer) *engineMix {
	// 2 simulated seconds per machine; 0.08 in a smoke run.
	w := &engineMix{seed: o.seed, slices: 50, tr: tr}
	if o.smoke {
		w.slices = 2
	}
	return w
}

// Setup compiles the whole catalog plain and protean, measures the gated
// service's capacity, and constructs the machines.
func (w *engineMix) Setup(yield func()) error {
	bins := make(map[string]*progbin.Binary)
	var err error
	compile := func(key string, spec workload.Spec, protean bool) {
		if err != nil {
			return
		}
		w.tr.in("pcc.Compile", func() {
			bins[key], err = pcc.Compile(spec.Module(), pcc.Options{Protean: protean})
		})
		yield()
	}
	for _, spec := range workload.Catalog() {
		compile(spec.Name, spec, false)
		compile(spec.Name+"+protean", spec, true)
	}
	if err != nil {
		return err
	}
	w.tr.in("pcc.Compile", func() { bins["libquantum+nt"], err = compileAllNT("libquantum") })
	if err != nil {
		return err
	}
	w.bins = bins

	// Capacity of the gated service alone, the reference its 30 % load is
	// a fraction of.
	w.tr.in("loadgen.MeasureCapacity", func() {
		m := machine.New(machine.Config{Cores: 1, Seed: w.seed})
		var p *machine.Process
		if p, err = m.Attach(0, bins["web-search"], machine.ProcessConfig{Gated: true}); err == nil {
			w.peakQPS = loadgen.MeasureCapacity(m, p, 200)
		}
	})
	if err != nil {
		return err
	}
	yield()
	_, err = w.build("")
	return err
}

// compileAllNT compiles app as a plain binary with every load hinted
// non-temporal.
func compileAllNT(app string) (*progbin.Binary, error) {
	mod := workload.MustByName(app).Module()
	for _, ld := range mod.Loads() {
		ld.NT = true
	}
	if err := mod.Finalize(); err != nil {
		return nil, err
	}
	return pcc.Compile(mod, pcc.Options{})
}

// build constructs the three machines, caches empty, under the given
// engine ("" is the default engine).
func (w *engineMix) build(engine string) ([]*mixMachine, error) {
	var out []*mixMachine
	for _, set := range mixSets {
		mm, err := w.buildSet(set, engine)
		if err != nil {
			return nil, err
		}
		out = append(out, mm)
	}
	return out, nil
}

// buildSet constructs one machine; an empty app name leaves its core idle.
func (w *engineMix) buildSet(set mixSet, engine string) (*mixMachine, error) {
	mm := &mixMachine{set: set}
	w.tr.in("machine.New", func() {
		mm.m = machine.New(machine.Config{Cores: 4, Seed: w.seed, Engine: engine})
	})
	for core, app := range set.apps {
		if app == "" {
			continue
		}
		cfg := machine.ProcessConfig{Restart: true, Label: app}
		gated := app == "web-search@30"
		if gated {
			app = "web-search"
			cfg = machine.ProcessConfig{Gated: true, Label: app}
		}
		var p *machine.Process
		var err error
		w.tr.in("machine.Attach", func() { p, err = mm.m.Attach(core, w.bins[app], cfg) })
		if err != nil {
			return nil, fmt.Errorf("%s core %d: %w", set.name, core, err)
		}
		if gated {
			mm.m.AddAgent(loadgen.NewGenerator(p, loadgen.Constant(0.3), w.peakQPS))
		}
		mm.procs = append(mm.procs, p)
	}
	return mm, nil
}

// digest hashes every counter of the machine's processes and its per-core
// LLC statistics.
func (mm *mixMachine) digest() uint64 {
	vals := []any{mm.m.Now()}
	for _, p := range mm.procs {
		vals = append(vals, p.Counters(), p.CurrentPC(), mm.m.Hierarchy().CoreStats(p.Core()))
	}
	return fnvOf(vals...)
}

func (w *engineMix) Round() ([]slice, error) {
	machines, err := w.build("")
	if err != nil {
		return nil, err
	}
	w.last = machines
	var out []slice
	for _, mm := range machines {
		for k := 0; k < w.slices; k++ {
			out = append(out, slice{
				name:   fmt.Sprintf("%s/q%04d", mm.set.name, (k+1)*mixQuanta),
				layer:  "machine.RunQuanta." + mm.set.name,
				call:   func() error { mm.m.RunQuanta(mixQuanta); return nil },
				digest: mm.digest,
			})
		}
	}
	return out, nil
}

// insts is the instructions the machine's processes have retired.
func (mm *mixMachine) insts() uint64 {
	var n uint64
	for _, p := range mm.procs {
		n += p.Counters().Insts
	}
	return n
}

// Work is millions of simulated instructions retired in the round.
func (w *engineMix) Work() float64 {
	var insts uint64
	for _, mm := range w.last {
		insts += mm.insts()
	}
	return float64(insts) / 1e6
}

// Verify re-runs a prefix of every machine under the interp engine, the
// repository's semantics oracle, and requires the counters the superblock
// engine produced in round 0, slice by slice.
func (w *engineMix) Verify(c *checker, ref map[string]uint64) {
	prefix := 6 // 0.24 simulated seconds
	if prefix > w.slices {
		prefix = w.slices
	}
	machines, err := w.build(machine.EngineInterp)
	if err != nil {
		c.check(false, "interp oracle: %v", err)
		return
	}
	for _, mm := range machines {
		ok := true
		for k := 0; k < prefix && ok; k++ {
			mm.m.RunQuanta(mixQuanta)
			ok = mm.digest() == ref[fmt.Sprintf("%s/q%04d", mm.set.name, (k+1)*mixQuanta)]
		}
		c.check(ok, "interp oracle: %s counters differ from the default engine within %d quanta", mm.set.name, prefix*mixQuanta)
	}
}
