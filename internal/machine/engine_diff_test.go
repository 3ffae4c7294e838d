package machine_test

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pcc"
	"repro/internal/progbin"
	"repro/internal/workload"
)

// binaries memoises catalog apps compiled plain, keyed by name: the fuzz
// target below would otherwise recompile an app on every input.
var binaries sync.Map

func catalogBinary(t *testing.T, name string) *progbin.Binary {
	t.Helper()
	if bin, ok := binaries.Load(name); ok {
		return bin.(*progbin.Binary)
	}
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	bin, err := spec.CompilePlain()
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	binaries.Store(name, bin)
	return bin
}

// lockstep runs bin under both engines on separate one-core machines built
// from mcfg and compares the full architectural surface at every quantum
// boundary: counters, the sampled PC, the halt flag, and the cache
// hierarchy's per-level and per-core statistics. drive, when non-nil, is
// applied to both processes before each quantum (load grants, nap levels,
// sleeps, steals), so scenario tests exercise every scheduling state.
func lockstep(t *testing.T, bin *progbin.Binary, mcfg machine.Config, cfg machine.ProcessConfig, quanta int, drive func(q int, p *machine.Process)) {
	t.Helper()
	name := bin.Program.Name
	type run struct {
		m *machine.Machine
		p *machine.Process
	}
	var runs [2]run
	for i, eng := range []string{machine.EngineInterp, machine.EngineSuperblock} {
		mcfg.Cores, mcfg.Engine = 1, eng
		m := machine.New(mcfg)
		p, err := m.Attach(0, bin, cfg)
		if err != nil {
			t.Fatalf("attach %s under %s: %v", name, eng, err)
		}
		runs[i] = run{m: m, p: p}
	}
	for q := 0; q < quanta; q++ {
		for _, r := range runs {
			if drive != nil {
				drive(q, r.p)
			}
			r.m.RunQuanta(1)
		}
		a, b := runs[0].p, runs[1].p
		if ca, cb := a.Counters(), b.Counters(); ca != cb {
			t.Fatalf("%s: counters diverged at quantum %d:\n  interp:     %+v\n  superblock: %+v", name, q, ca, cb)
		}
		if a.CurrentPC() != b.CurrentPC() {
			t.Fatalf("%s: PC diverged at quantum %d: interp %d, superblock %d", name, q, a.CurrentPC(), b.CurrentPC())
		}
		if a.Halted() != b.Halted() {
			t.Fatalf("%s: halt state diverged at quantum %d", name, q)
		}
		if sa, sb := statsOf(runs[0].m), statsOf(runs[1].m); sa != sb {
			t.Fatalf("%s: cache stats diverged at quantum %d:\n  interp:     %+v\n  superblock: %+v", name, q, sa, sb)
		}
	}
}

// cacheStats is the hierarchy state of core 0 the Engine contract requires
// to match.
type cacheStats struct {
	L1, L2, LLC cache.Stats
	Core        cache.CoreStats
}

func statsOf(m *machine.Machine) cacheStats {
	h := m.Hierarchy()
	return cacheStats{h.L1(0).Stats(), h.L2(0).Stats(), h.LLC().Stats(), h.CoreStats(0)}
}

// TestEngineDifferentialCatalog holds the superblock engine to the interp
// oracle across the entire application catalog: equal counters, sampled
// PCs and cache statistics at every quantum boundary. This is the
// bit-identity contract.
func TestEngineDifferentialCatalog(t *testing.T) {
	for _, spec := range workload.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg := spec.ProcessConfig()
			var drive func(int, *machine.Process)
			if cfg.Gated {
				// Same deterministic request schedule on both sides.
				drive = func(q int, p *machine.Process) {
					if q%4 == 0 {
						p.GrantWork(3)
					}
				}
			}
			lockstep(t, catalogBinary(t, spec.Name), machine.Config{}, cfg, 120, drive)
		})
	}
}

// TestSuperblockFoldsLoopIteration: in er-naive's plain binary every counted
// loop's iteration — body, back-edge jump, header br — decodes to one fused
// run (machine.CheckLoopFold).
func TestSuperblockFoldsLoopIteration(t *testing.T) {
	machine.CheckLoopFold(t, catalogBinary(t, "er-naive"))
}

// TestEngineDifferentialScheduling drives the scheduling states the fused
// path shares with the oracle — partial and full napping, forced sleep,
// stolen cycles — through both engines in lockstep, at the default 1 ms
// quantum inside 5 ms nap windows and at 15 ms quanta spanning three
// windows, where full napping crosses window edges inside one quantum and
// partial napping ends an executing span at every edge.
func TestEngineDifferentialScheduling(t *testing.T) {
	for _, tc := range []struct {
		name    string
		quantum uint64
	}{
		{"quantum=1ms", 0},
		{"quantum=3windows", 150_000}, // 3 × 5 ms at the default 10 MHz
	} {
		t.Run(tc.name, func(t *testing.T) {
			lockstep(t, catalogBinary(t, "libquantum"), machine.Config{QuantumCycles: tc.quantum},
				machine.ProcessConfig{Restart: true}, 140, func(q int, p *machine.Process) {
					switch q {
					case 10:
						p.SetNapIntensity(0.3)
					case 40:
						p.SetNapIntensity(1)
					case 60:
						p.SetNapIntensity(0)
					case 70:
						p.ForceSleep(2500)
					case 90:
						p.StealCycles(1500)
					case 100:
						p.SetNapIntensity(0.65)
					case 120:
						p.SetNapIntensity(0)
					}
				})
		})
	}
}

// TestEngineDifferentialGatedDrain makes a gated server's budget run out
// inside the boundary zone, where the superblock engine single-steps: each
// quantum grants one short request and first sleeps a shifting offset, so
// over the run the request's final return lands at every distance from the
// quantum boundary. A large DBT translation cost enters every terminator's
// worst case, so the return is single-stepped whenever it comes within
// ~400 cycles of the boundary; a completion there must end the executing
// span, since the drained server idles from that cycle on.
func TestEngineDifferentialGatedDrain(t *testing.T) {
	mb := ir.NewModuleBuilder("drain")
	mb.Global("g", 4096)
	f := mb.Function("main")
	f.Loop(20, func() { f.Work(2) })
	f.Return()
	mb.SetEntry("main")
	bin, err := pcc.Compile(mb.MustBuild(), pcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const quantum = 1000
	cfg := machine.ProcessConfig{Gated: true, DBT: &machine.DBTConfig{TranslateCyclesPerSite: 400}}
	lockstep(t, bin, machine.Config{QuantumCycles: quantum}, cfg, 100, func(q int, p *machine.Process) {
		p.GrantWork(1)
		p.ForceSleep(uint64(q*37) % quantum)
	})
}

// TestEngineDifferentialDBT overlays the binary-translation cost model:
// per-transfer dispatch costs and first-visit translation costs must land
// on the same cycles under both engines.
func TestEngineDifferentialDBT(t *testing.T) {
	lockstep(t, catalogBinary(t, "libquantum"), machine.Config{}, machine.ProcessConfig{
		Restart: true,
		DBT: &machine.DBTConfig{
			DirectTransferCycles:   2,
			IndirectTransferCycles: 14,
			TranslateCyclesPerSite: 150,
		},
	}, 100, nil)
}

// FuzzEngineLockstep holds the superblock engine to the interp oracle on
// catalog programs under fuzzer-chosen scheduling. The inputs pick the app,
// the quantum size (1 to ~4 nap windows), the DBT overlay and a script of
// at most 32 quanta, one byte each applied before its quantum: the low two
// bits choose a nap level, a forced sleep, stolen cycles or a work grant,
// the high six bits its size.
//
//	go test -fuzz=FuzzEngineLockstep -fuzztime=30s -run='^$' ./internal/machine
func FuzzEngineLockstep(f *testing.F) {
	f.Add(uint8(2), uint16(3333), false, []byte{0x00, 0x7c, 0x01, 0x02, 0x03, 0x00})
	f.Add(uint8(7), uint16(50000), true, []byte{0xfc, 0xfc, 0x80, 0x00})
	f.Add(uint8(23), uint16(1), false, []byte{0x43, 0x43, 0x41, 0x42, 0x03})
	f.Add(uint8(24), uint16(65535), true, []byte{0x07, 0x40, 0x81, 0xc2, 0x00, 0x7f})
	catalog := workload.Catalog()
	f.Fuzz(func(t *testing.T, app uint8, quantum uint16, dbt bool, script []byte) {
		spec := catalog[int(app)%len(catalog)]
		cfg := spec.ProcessConfig()
		if dbt {
			cfg.DBT = &machine.DBTConfig{DirectTransferCycles: 2, IndirectTransferCycles: 14, TranslateCyclesPerSite: 150}
		}
		mcfg := machine.Config{QuantumCycles: 1 + 3*uint64(quantum)}
		script = script[:min(len(script), 32)]
		lockstep(t, catalogBinary(t, spec.Name), mcfg, cfg, len(script), func(q int, p *machine.Process) {
			size := uint64(script[q] >> 2)
			switch script[q] & 3 {
			case 0:
				p.SetNapIntensity(float64(size) / 63)
			case 1:
				p.ForceSleep(size * mcfg.QuantumCycles / 16)
			case 2:
				p.StealCycles(size * 250)
			case 3:
				p.GrantWork(size)
			}
		})
	})
}
