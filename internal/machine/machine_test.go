package machine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/pcc"
	"repro/internal/progbin"
)

// streamModule builds main calling a hot loop that streams through ws bytes.
func streamModule(t testing.TB, name string, ws int64) *ir.Module {
	t.Helper()
	mb := ir.NewModuleBuilder(name)
	mb.Global("buf", ws)
	hot := mb.Function("hot")
	hot.Loop(2000, func() {
		hot.Load(ir.Access{Global: "buf", Pattern: ir.Seq, Stride: 64})
		hot.Work(2)
	})
	hot.Return()
	main := mb.Function("main")
	main.Loop(1<<40, func() {
		main.Call("hot")
	})
	main.Return()
	mb.SetEntry("main")
	m, err := mb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func compile(t testing.TB, m *ir.Module, protean bool) *progbin.Binary {
	t.Helper()
	b, err := pcc.Compile(m, pcc.Options{Protean: protean})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return b
}

func TestAttachAndRun(t *testing.T) {
	m := New(Config{Cores: 2})
	bin := compile(t, streamModule(t, "app", 1<<20), true)
	p, err := m.Attach(0, bin, ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	m.RunQuanta(10)
	c := p.Counters()
	if c.Insts == 0 || c.Branches == 0 || c.Loads == 0 {
		t.Fatalf("no progress: %+v", c)
	}
	// The local clock may overshoot the quantum boundary by at most one
	// instruction's cost.
	if c.Cycles < m.Now() || c.Cycles > m.Now()+1000 {
		t.Errorf("process clock %d not within one instruction of machine clock %d", c.Cycles, m.Now())
	}
	if p.Halted() {
		t.Error("restarting process reported halted")
	}
}

func TestAttachErrors(t *testing.T) {
	m := New(Config{Cores: 1})
	bin := compile(t, streamModule(t, "app", 1<<16), false)
	if _, err := m.Attach(5, bin, ProcessConfig{}); err == nil {
		t.Error("attach to out-of-range core succeeded")
	}
	if _, err := m.Attach(0, bin, ProcessConfig{}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := m.Attach(0, bin, ProcessConfig{}); err == nil {
		t.Error("double attach succeeded")
	}
	m.Detach(0)
	if _, err := m.Attach(0, bin, ProcessConfig{}); err != nil {
		t.Errorf("attach after detach: %v", err)
	}
}

func TestHaltWithoutRestart(t *testing.T) {
	mb := ir.NewModuleBuilder("finite")
	mb.Global("g", 4096)
	f := mb.Function("main")
	f.Loop(100, func() { f.Work(1) })
	f.Return()
	mb.SetEntry("main")
	bin := compile(t, mb.MustBuild(), false)

	m := New(Config{Cores: 1})
	p, err := m.Attach(0, bin, ProcessConfig{})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	m.RunQuanta(5)
	if !p.Halted() {
		t.Fatal("finite program did not halt")
	}
	if p.Counters().Completions != 1 {
		t.Errorf("Completions = %d, want 1", p.Counters().Completions)
	}
	insts := p.Counters().Insts
	m.RunQuanta(5)
	if p.Counters().Insts != insts {
		t.Error("halted process kept executing")
	}
}

func TestRestartCountsCompletions(t *testing.T) {
	mb := ir.NewModuleBuilder("finite")
	mb.Global("g", 4096)
	f := mb.Function("main")
	f.Loop(10, func() { f.Work(1) })
	f.Return()
	mb.SetEntry("main")
	bin := compile(t, mb.MustBuild(), false)

	m := New(Config{Cores: 1})
	p, _ := m.Attach(0, bin, ProcessConfig{Restart: true})
	m.RunQuanta(3)
	if p.Counters().Completions < 2 {
		t.Errorf("Completions = %d, want >= 2 with restart", p.Counters().Completions)
	}
}

func TestLoopSemanticsExact(t *testing.T) {
	// A counted loop must execute its body exactly `trip` times:
	// completions-per-quantum depend on honest control flow.
	mb := ir.NewModuleBuilder("count")
	mb.Global("g", 1<<16)
	f := mb.Function("main")
	f.Loop(7, func() {
		f.Load(ir.Access{Global: "g", Pattern: ir.Seq, Stride: 64})
	})
	f.Return()
	mb.SetEntry("main")
	bin := compile(t, mb.MustBuild(), false)

	m := New(Config{Cores: 1})
	p, _ := m.Attach(0, bin, ProcessConfig{})
	m.RunQuanta(1)
	if got := p.Counters().Loads; got != 7 {
		t.Errorf("loads = %d, want exactly 7", got)
	}
}

func TestNapIntensityThrottles(t *testing.T) {
	run := func(nap float64) uint64 {
		m := New(Config{Cores: 1})
		bin := compile(t, streamModule(t, "app", 1<<16), false)
		p, _ := m.Attach(0, bin, ProcessConfig{Restart: true})
		p.SetNapIntensity(nap)
		m.RunQuanta(200)
		return p.Counters().Insts
	}
	full := run(0)
	half := run(0.5)
	ninety := run(0.9)
	if half >= full*6/10 || half <= full*4/10 {
		t.Errorf("nap 0.5: insts %d vs full %d, want roughly half", half, full)
	}
	if ninety >= full*2/10 {
		t.Errorf("nap 0.9: insts %d vs full %d, want <20%%", ninety, full)
	}
}

func TestNapIntensityClamped(t *testing.T) {
	m := New(Config{Cores: 1})
	bin := compile(t, streamModule(t, "app", 1<<16), false)
	p, _ := m.Attach(0, bin, ProcessConfig{Restart: true})
	p.SetNapIntensity(-1)
	if p.NapIntensity() != 0 {
		t.Error("negative intensity not clamped to 0")
	}
	p.SetNapIntensity(2)
	if p.NapIntensity() != 1 {
		t.Error("intensity > 1 not clamped")
	}
}

func TestForceSleepStopsProgress(t *testing.T) {
	m := New(Config{Cores: 1})
	bin := compile(t, streamModule(t, "app", 1<<16), false)
	p, _ := m.Attach(0, bin, ProcessConfig{Restart: true})
	m.RunQuanta(10)
	before := p.Counters()
	p.ForceSleep(m.Config().QuantumCycles * 5)
	m.RunQuanta(5)
	d := p.Counters().Sub(before)
	if d.Insts != 0 {
		t.Errorf("slept process executed %d insts", d.Insts)
	}
	// Overshoot from the instruction in flight at the sleep boundary may
	// shave a few cycles off the counted sleep.
	want := m.Config().QuantumCycles * 5
	if d.SleepCycles > want || d.SleepCycles < want-1000 {
		t.Errorf("SleepCycles = %d, want ~%d", d.SleepCycles, want)
	}
	m.RunQuanta(5)
	if p.Counters().Sub(before).Insts == 0 {
		t.Error("process did not wake after sleep")
	}
}

func TestStealCyclesSlowsProcess(t *testing.T) {
	m := New(Config{Cores: 1})
	bin := compile(t, streamModule(t, "app", 1<<16), false)
	p, _ := m.Attach(0, bin, ProcessConfig{Restart: true})
	m.RunQuanta(10)
	before := p.Counters()
	p.StealCycles(m.Config().QuantumCycles * 3)
	m.RunQuanta(10)
	d := p.Counters().Sub(before)
	if d.StolenCycles != m.Config().QuantumCycles*3 {
		t.Errorf("StolenCycles = %d, want %d", d.StolenCycles, m.Config().QuantumCycles*3)
	}
	if d.Insts == 0 {
		t.Error("process starved entirely")
	}
}

func TestCacheContentionDegradesCoRunner(t *testing.T) {
	// A cache-sensitive app (working set ~ LLC) must slow down measurably
	// when a streaming app co-runs. This is the core phenomenon of the
	// paper; everything else builds on it.
	sensitive := func() *ir.Module {
		mb := ir.NewModuleBuilder("sensitive")
		mb.Global("ws", 7<<18) // 1.75 MiB: nearly fills the 2 MiB LLC alone
		f := mb.Function("hot")
		f.Loop(4000, func() {
			f.Load(ir.Access{Global: "ws", Pattern: ir.Rand})
			f.Work(1)
		})
		f.Return()
		main := mb.Function("main")
		main.Loop(1<<40, func() { main.Call("hot") })
		main.Return()
		mb.SetEntry("main")
		return mb.MustBuild()
	}

	solo := New(Config{Cores: 2})
	ps, _ := solo.Attach(0, compile(t, sensitive(), false), ProcessConfig{Restart: true})
	solo.RunQuanta(2000)
	soloIPS := float64(ps.Counters().Insts)

	co := New(Config{Cores: 2})
	pc, _ := co.Attach(0, compile(t, sensitive(), false), ProcessConfig{Restart: true})
	_, err := co.Attach(1, compile(t, streamModule(t, "stream", 8<<20), false), ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	co.RunQuanta(2000)
	coIPS := float64(pc.Counters().Insts)

	qos := coIPS / soloIPS
	if qos > 0.95 {
		t.Errorf("co-location QoS = %.3f; expected measurable degradation (<0.95)", qos)
	}
	if qos < 0.05 {
		t.Errorf("co-location QoS = %.3f; implausibly catastrophic", qos)
	}
}

func TestNTHintsReduceCoRunnerPressure(t *testing.T) {
	// The streaming aggressor with NT hints must hurt the sensitive
	// co-runner less than the plain aggressor — the PC3D premise.
	sensitive := func() *ir.Module {
		mb := ir.NewModuleBuilder("sensitive")
		mb.Global("ws", 7<<18)
		f := mb.Function("hot")
		f.Loop(4000, func() {
			f.Load(ir.Access{Global: "ws", Pattern: ir.Rand})
			f.Work(1)
		})
		f.Return()
		main := mb.Function("main")
		main.Loop(1<<40, func() { main.Call("hot") })
		main.Return()
		mb.SetEntry("main")
		return mb.MustBuild()
	}
	aggressor := func(nt bool) *progbin.Binary {
		m := streamModule(t, "stream", 8<<20)
		if nt {
			for _, ld := range m.Loads() {
				ld.NT = true
			}
		}
		return compile(t, m, false)
	}
	runQoS := func(nt bool) float64 {
		mm := New(Config{Cores: 2})
		ps, _ := mm.Attach(0, compile(t, sensitive(), false), ProcessConfig{Restart: true})
		if _, err := mm.Attach(1, aggressor(nt), ProcessConfig{Restart: true}); err != nil {
			t.Fatalf("Attach: %v", err)
		}
		mm.RunQuanta(2000)
		return float64(ps.Counters().Insts)
	}
	plain := runQoS(false)
	hinted := runQoS(true)
	if hinted <= plain*1.05 {
		t.Errorf("NT hints did not relieve pressure: sensitive insts %f (plain) vs %f (NT)", plain, hinted)
	}
}

func TestVariantInstallAndEVTDispatch(t *testing.T) {
	m := New(Config{Cores: 1})
	irm := streamModule(t, "app", 1<<20)
	bin := compile(t, irm, true)
	p, err := m.Attach(0, bin, ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	m.RunQuanta(5)

	// Build an NT variant of "hot" from the embedded IR, as the runtime
	// compiler would.
	emb, err := bin.DecodeIR()
	if err != nil {
		t.Fatalf("DecodeIR: %v", err)
	}
	for _, ld := range emb.Loads() {
		ld.NT = true
	}
	vr, err := isa.LowerVariant(bin.Program, emb, "hot", 1, p.CodeCursor())
	if err != nil {
		t.Fatalf("LowerVariant: %v", err)
	}
	if err := p.InstallVariant(vr); err != nil {
		t.Fatalf("InstallVariant: %v", err)
	}

	slot := p.EVT().SlotFor("hot")
	if slot < 0 {
		t.Fatal("hot not in EVT")
	}
	before := p.Counters()
	p.EVT().SetTarget(slot, vr.Info.Entry)
	m.RunQuanta(50)
	d := p.Counters().Sub(before)
	if d.Prefetches == 0 {
		t.Fatal("variant never executed: no prefetch instructions retired")
	}

	// Redirect back to the original: prefetches stop accumulating.
	fi, _ := bin.Program.FuncByName("hot")
	p.EVT().SetTarget(slot, fi.Entry)
	m.RunQuanta(50) // drain the in-flight variant invocation
	mid := p.Counters()
	m.RunQuanta(50)
	if p.Counters().Sub(mid).Prefetches != 0 {
		t.Error("original code still issuing prefetches after EVT revert")
	}
}

// TestInstallLeavesSharedTextAlone attaches two processes to one binary
// and installs a variant into one of them. The binary's text, the
// sibling's code cursor and the sibling's execution must be those of a
// process that never shared its text.
func TestInstallLeavesSharedTextAlone(t *testing.T) {
	run := func(owner, sibling *progbin.Binary) (*Process, *Process) {
		m := New(Config{Cores: 2})
		p, err := m.Attach(0, owner, ProcessConfig{Restart: true})
		if err != nil {
			t.Fatal(err)
		}
		sib, err := m.Attach(1, sibling, ProcessConfig{Restart: true})
		if err != nil {
			t.Fatal(err)
		}
		m.RunQuanta(5)
		vr := installNTVariant(t, p)
		p.EVT().SetTarget(p.EVT().SlotFor("hot"), vr.Info.Entry)
		m.RunQuanta(50)
		return p, sib
	}
	bin := compile(t, streamModule(t, "app", 1<<20), true)
	text := slices.Clone(bin.Program.Code)
	p, sib := run(bin, bin)
	if !reflect.DeepEqual(bin.Program.Code, text) {
		t.Error("installing a variant changed the binary's text")
	}
	if got := sib.CodeCursor(); got != len(text) {
		t.Errorf("sibling's code cursor moved to %d, want %d", got, len(text))
	}
	if p.Counters().Prefetches == 0 {
		t.Fatal("the NT variant never ran")
	}
	fresh := func() *progbin.Binary { return compile(t, streamModule(t, "app", 1<<20), true) }
	_, ref := run(fresh(), fresh())
	if sib.Counters() != ref.Counters() {
		t.Errorf("sibling of an installed variant ran differently:\n  shared: %+v\n  own:    %+v", sib.Counters(), ref.Counters())
	}
}

func TestInstallVariantWrongBase(t *testing.T) {
	m := New(Config{Cores: 1})
	bin := compile(t, streamModule(t, "app", 1<<20), true)
	p, _ := m.Attach(0, bin, ProcessConfig{})
	emb, _ := bin.DecodeIR()
	vr, err := isa.LowerVariant(bin.Program, emb, "hot", 1, p.CodeCursor()+10)
	if err != nil {
		t.Fatalf("LowerVariant: %v", err)
	}
	if err := p.InstallVariant(vr); err == nil {
		t.Fatal("InstallVariant accepted mismatched base PC")
	}
}

func TestFuncAtAttribution(t *testing.T) {
	m := New(Config{Cores: 1})
	bin := compile(t, streamModule(t, "app", 1<<20), true)
	p, _ := m.Attach(0, bin, ProcessConfig{Restart: true})
	m.RunQuanta(20)
	name := p.CurrentFunc()
	if name != "hot" && name != "main" {
		t.Errorf("CurrentFunc = %q, want hot or main", name)
	}
	if _, ok := p.FuncAt(-1); ok {
		t.Error("FuncAt(-1) resolved")
	}
	if _, ok := p.FuncAt(1 << 30); ok {
		t.Error("FuncAt(huge) resolved")
	}
}

func TestDBTOverlayAddsOverhead(t *testing.T) {
	bin := func() *progbin.Binary { return compile(t, streamModule(t, "app", 1<<18), false) }
	run := func(dbt *DBTConfig) (insts, cycles uint64) {
		m := New(Config{Cores: 1})
		p, _ := m.Attach(0, bin(), ProcessConfig{Restart: true, DBT: dbt})
		m.RunQuanta(500)
		return p.Counters().Insts, p.Counters().Cycles
	}
	nativeInsts, _ := run(nil)
	dbtInsts, _ := run(&DBTConfig{DirectTransferCycles: 1, IndirectTransferCycles: 30, TranslateCyclesPerSite: 200})
	if dbtInsts >= nativeInsts {
		t.Errorf("DBT overlay did not slow execution: %d vs native %d", dbtInsts, nativeInsts)
	}
	slowdown := float64(nativeInsts) / float64(dbtInsts)
	if slowdown < 1.02 || slowdown > 3 {
		t.Errorf("DBT slowdown %.2fx outside plausible range", slowdown)
	}
}

func TestClockHelpers(t *testing.T) {
	m := New(Config{Cores: 1, FreqHz: 1e6, QuantumCycles: 1000})
	m.RunQuanta(500)
	if got := m.NowSeconds(); got < 0.49 || got > 0.51 {
		t.Errorf("NowSeconds = %v, want 0.5", got)
	}
	if m.Cycles(2.0) != 2e6 {
		t.Errorf("Cycles(2.0) = %d", m.Cycles(2.0))
	}
}

// TestRunSeconds pins the rounding rule (nearest quantum, minimum one) and
// the panic on a duration whose quantum count is no int. No process is
// attached: only the clock moves.
func TestRunSeconds(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		quanta  uint64 // 0: must panic
	}{
		{0, 1},
		{-1, 1},
		{1e-9, 1},
		{0.0014, 1},
		{0.0015, 2},
		{0.35, 350}, // 0.35 s × 1000 quanta/s = 349.999…: truncation dropped one
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{1e300, 0},
		{-1e300, 0},
	} {
		m := New(Config{Cores: 1}) // 10 MHz, 1 ms quanta
		func() {
			defer func() {
				r := recover()
				if (r != nil) != (tc.quanta == 0) {
					t.Errorf("RunSeconds(%v): panic %v, want %d quanta", tc.seconds, r, tc.quanta)
				}
				if msg, _ := r.(string); r != nil && !strings.Contains(msg, fmt.Sprint(tc.seconds)) {
					t.Errorf("RunSeconds(%v) panic does not name the value: %v", tc.seconds, r)
				}
			}()
			m.RunSeconds(tc.seconds)
		}()
		if got := m.Now() / m.Config().QuantumCycles; got != tc.quanta {
			t.Errorf("RunSeconds(%v) ran %d quanta, want %d", tc.seconds, got, tc.quanta)
		}
	}
}

func TestAgentTicks(t *testing.T) {
	m := New(Config{Cores: 1})
	n := 0
	m.AddAgent(AgentFunc(func(mm *Machine) { n++ }))
	m.RunQuanta(7)
	if n != 7 {
		t.Errorf("agent ticked %d times, want 7", n)
	}
}

func TestAddressStreamsDiffer(t *testing.T) {
	// Two cores running the same binary must generate disjoint address
	// streams (per-process base offset).
	m := New(Config{Cores: 2})
	b1 := compile(t, streamModule(t, "a", 1<<16), false)
	b2 := compile(t, streamModule(t, "a", 1<<16), false)
	p1, _ := m.Attach(0, b1, ProcessConfig{Restart: true})
	p2, _ := m.Attach(1, b2, ProcessConfig{Restart: true})
	m.RunQuanta(10)
	// Indirect check: both processes stream a 64 KiB buffer which fits in
	// L2; with disjoint address spaces neither sees the other's lines, so
	// both should settle to near-perfect locality.
	c1, c2 := p1.Counters(), p2.Counters()
	if c1.Loads == 0 || c2.Loads == 0 {
		t.Fatal("processes made no loads")
	}
	s1 := m.Hierarchy().CoreStats(0)
	s2 := m.Hierarchy().CoreStats(1)
	// After warmup, LLC misses should be a tiny fraction of loads.
	if s1.LLCMisses > c1.Loads/4 || s2.LLCMisses > c2.Loads/4 {
		t.Errorf("unexpected LLC traffic for L2-resident streams: %+v %+v", s1, s2)
	}
}

func TestGatedServerIdlesWithoutWork(t *testing.T) {
	mb := ir.NewModuleBuilder("server")
	mb.Global("idx", 1<<16)
	f := mb.Function("main")
	f.Loop(50, func() {
		f.Load(ir.Access{Global: "idx", Pattern: ir.Rand})
	})
	f.Return()
	mb.SetEntry("main")
	bin := compile(t, mb.MustBuild(), false)

	m := New(Config{Cores: 1})
	p, _ := m.Attach(0, bin, ProcessConfig{Gated: true})
	m.RunQuanta(10)
	if p.Counters().Completions != 0 {
		t.Fatalf("server served %d requests with no budget", p.Counters().Completions)
	}
	if p.Counters().IdleCycles == 0 {
		t.Error("idle cycles not accounted")
	}
	p.GrantWork(5)
	m.RunQuanta(10)
	if got := p.Counters().Completions; got != 5 {
		t.Errorf("served %d requests, want exactly 5", got)
	}
	if p.WorkBudget() != 0 {
		t.Errorf("budget = %d after serving, want 0", p.WorkBudget())
	}
	if p.Halted() {
		t.Error("gated server halted")
	}
	// More work arrives later: serving resumes.
	p.GrantWork(3)
	m.RunQuanta(10)
	if got := p.Counters().Completions; got != 8 {
		t.Errorf("served %d requests total, want 8", got)
	}
}

func TestGatedServerThroughputTracksGrants(t *testing.T) {
	mb := ir.NewModuleBuilder("server")
	mb.Global("idx", 1<<16)
	f := mb.Function("main")
	f.Loop(20, func() {
		f.Load(ir.Access{Global: "idx", Pattern: ir.Rand})
		f.Work(2)
	})
	f.Return()
	mb.SetEntry("main")

	m := New(Config{Cores: 1})
	p, _ := m.Attach(0, compile(t, mb.MustBuild(), false), ProcessConfig{Gated: true})
	// Grant 10 requests per quantum: far below capacity, so all are served.
	total := uint64(0)
	for i := 0; i < 100; i++ {
		p.GrantWork(10)
		total += 10
		m.RunQuanta(1)
	}
	served := p.Counters().Completions
	if served < total-10 {
		t.Errorf("served %d of %d offered requests at low load", served, total)
	}
}

func TestDeferRunsAtQuantumBoundary(t *testing.T) {
	m := New(Config{Cores: 1})
	var order []string
	m.AddAgent(AgentFunc(func(mm *Machine) {
		if !mm.InTick() {
			t.Error("InTick false during agent callback")
		}
		order = append(order, "agent1")
		mm.Defer(func() {
			order = append(order, "deferred")
			// Nested defers still run this boundary.
			mm.Defer(func() { order = append(order, "nested") })
		})
	}))
	m.AddAgent(AgentFunc(func(*Machine) { order = append(order, "agent2") }))
	m.RunQuanta(1)
	if m.InTick() {
		t.Error("InTick true between quanta")
	}
	want := []string{"agent1", "agent2", "deferred", "nested"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Outside a tick, Defer runs immediately.
	ran := false
	m.Defer(func() { ran = true })
	if !ran {
		t.Error("Defer outside a tick did not run immediately")
	}
}
