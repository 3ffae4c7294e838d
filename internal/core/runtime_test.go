package core

import (
	"errors"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pcc"
	"repro/internal/progbin"
)

// hostModule: main loops calling "hot" (virtualized) and "tiny" (not).
func hostModule(t testing.TB) *ir.Module {
	t.Helper()
	mb := ir.NewModuleBuilder("host")
	mb.Global("buf", 4<<20)
	hot := mb.Function("hot")
	hot.Loop(1000, func() {
		hot.Load(ir.Access{Global: "buf", Pattern: ir.Seq, Stride: 64})
		hot.Work(2)
	})
	hot.Return()
	tiny := mb.Function("tiny")
	tiny.Load(ir.Access{Global: "buf", Pattern: ir.Rand})
	tiny.Return()
	main := mb.Function("main")
	main.Loop(1<<40, func() {
		main.Call("hot")
		main.Call("tiny")
	})
	main.Return()
	mb.SetEntry("main")
	return mb.MustBuild()
}

func setup(t testing.TB, cfg Config) (*machine.Machine, *machine.Process, *Runtime) {
	t.Helper()
	bin, err := pcc.Compile(hostModule(t), pcc.Options{Protean: true})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := machine.New(machine.Config{Cores: 2})
	host, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	cfg.Machine = m
	cfg.Host = host
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	m.AddAgent(rt)
	return m, host, rt
}

func TestAttachRequiresProtean(t *testing.T) {
	bin, err := pcc.Compile(hostModule(t), pcc.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m := machine.New(machine.Config{Cores: 1})
	host, _ := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	if _, err := New(Config{Machine: m, Host: host}); !errors.Is(err, ErrNotProtean) {
		t.Fatalf("Attach error = %v, want ErrNotProtean", err)
	}
}

func TestAttachDiscoversIR(t *testing.T) {
	_, _, rt := setup(t, Config{RuntimeCore: 1})
	if rt.IR() == nil || rt.IR().Func("hot") == nil {
		t.Fatal("embedded IR not discovered")
	}
}

func TestAsyncCompileCompletesAfterLatency(t *testing.T) {
	m, _, rt := setup(t, Config{RuntimeCore: 1})
	var got *Variant
	err := rt.RequestVariant("hot", NTTransform(map[int]bool{0: true}), "mask0", func(v *Variant, err error) {
		if err != nil {
			t.Errorf("compile failed: %v", err)
		}
		got = v
	})
	if err != nil {
		t.Fatalf("RequestVariant: %v", err)
	}
	if rt.PendingJobs() != 1 {
		t.Fatalf("PendingJobs = %d, want 1", rt.PendingJobs())
	}
	// One quantum (1 ms) is less than the 4 ms compile: not done yet.
	m.RunQuanta(1)
	if got != nil {
		t.Fatal("variant completed before modeled compile latency")
	}
	m.RunQuanta(10)
	if got == nil {
		t.Fatal("variant never completed")
	}
	if got.Func != "hot" || got.ID != 1 || got.Meta != "mask0" {
		t.Errorf("variant = %+v", got)
	}
	if len(rt.Variants("hot")) != 1 {
		t.Errorf("Variants(hot) = %d, want 1", len(rt.Variants("hot")))
	}
}

func TestHostRunsDuringCompile(t *testing.T) {
	m, host, rt := setup(t, Config{RuntimeCore: 1})
	m.RunQuanta(2)
	before := host.Counters()
	done := false
	if err := rt.RequestVariant("hot", Identity, nil, func(*Variant, error) { done = true }); err != nil {
		t.Fatalf("RequestVariant: %v", err)
	}
	m.RunQuanta(2) // still compiling
	if done {
		t.Fatal("compile finished too early")
	}
	d := host.Counters().Sub(before)
	if d.Insts == 0 {
		t.Error("host stalled during separate-core compile")
	}
	if d.StolenCycles != 0 {
		t.Error("separate-core compile stole host cycles")
	}
}

func TestSameCoreCompileStealsHostCycles(t *testing.T) {
	m, host, rt := setup(t, Config{RuntimeCore: SameCore})
	m.RunQuanta(2)
	before := host.Counters()
	if err := rt.RequestVariant("hot", Identity, nil, nil); err != nil {
		t.Fatalf("RequestVariant: %v", err)
	}
	m.RunQuanta(10)
	d := host.Counters().Sub(before)
	if d.StolenCycles == 0 {
		t.Error("same-core compile stole nothing")
	}
}

func TestDispatchAndRevert(t *testing.T) {
	m, host, rt := setup(t, Config{RuntimeCore: 1})
	var v *Variant
	mask := map[int]bool{}
	for i := 0; i < rt.IR().NumLoads; i++ {
		mask[i] = true
	}
	if err := rt.RequestVariant("hot", NTTransform(mask), nil, func(vv *Variant, err error) { v = vv }); err != nil {
		t.Fatalf("RequestVariant: %v", err)
	}
	m.RunQuanta(10)
	if v == nil {
		t.Fatal("compile did not finish")
	}
	before := host.Counters()
	if err := rt.Dispatch(v); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if rt.Dispatched("hot") != v {
		t.Error("Dispatched(hot) mismatch")
	}
	m.RunQuanta(100)
	if host.Counters().Sub(before).Prefetches == 0 {
		t.Fatal("NT variant not executing after dispatch")
	}
	if err := rt.Revert("hot"); err != nil {
		t.Fatalf("Revert: %v", err)
	}
	if rt.Dispatched("hot") != nil {
		t.Error("Dispatched(hot) non-nil after revert")
	}
	m.RunQuanta(50) // drain
	mid := host.Counters()
	m.RunQuanta(100)
	if host.Counters().Sub(mid).Prefetches != 0 {
		t.Error("prefetches continue after revert")
	}
}

func TestDispatchUnvirtualizedFails(t *testing.T) {
	m, _, rt := setup(t, Config{RuntimeCore: 1})
	var v *Variant
	if err := rt.RequestVariant("tiny", Identity, nil, func(vv *Variant, err error) { v = vv }); err != nil {
		t.Fatalf("RequestVariant: %v", err)
	}
	m.RunQuanta(10)
	if v == nil {
		t.Fatal("compile did not finish")
	}
	if err := rt.Dispatch(v); !errors.Is(err, ErrNotVirtualized) {
		t.Errorf("Dispatch error = %v, want ErrNotVirtualized", err)
	}
	if err := rt.Revert("tiny"); !errors.Is(err, ErrNotVirtualized) {
		t.Errorf("Revert error = %v, want ErrNotVirtualized", err)
	}
}

func TestRevertAll(t *testing.T) {
	m, host, rt := setup(t, Config{RuntimeCore: 1})
	var v *Variant
	rt.RequestVariant("hot", Identity, nil, func(vv *Variant, err error) { v = vv })
	m.RunQuanta(10)
	if v == nil {
		t.Fatal("compile did not finish")
	}
	if err := rt.Dispatch(v); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if err := rt.RevertAll(); err != nil {
		t.Fatalf("RevertAll: %v", err)
	}
	if rt.Dispatched("hot") != nil {
		t.Error("RevertAll left a dispatch")
	}
	fi, _ := host.Binary().Program.FuncByName("hot")
	if host.EVT().Target(host.EVT().SlotFor("hot")) != fi.Entry {
		t.Error("EVT not pointing at original after RevertAll")
	}
}

func TestRequestUnknownFunction(t *testing.T) {
	_, _, rt := setup(t, Config{RuntimeCore: 1})
	if err := rt.RequestVariant("ghost", Identity, nil, nil); err == nil {
		t.Fatal("RequestVariant accepted unknown function")
	}
}

func TestTransformErrorPropagates(t *testing.T) {
	m, host, rt := setup(t, Config{RuntimeCore: 1})
	want := errors.New("boom")
	var got error
	rt.RequestVariant("hot", func(*ir.Module) error { return want }, nil, func(v *Variant, err error) {
		if v != nil {
			t.Error("variant returned despite transform error")
		}
		got = err
	})
	before := host.Counters()
	m.RunQuanta(10)
	if !errors.Is(got, want) {
		t.Errorf("callback error = %v, want %v", got, want)
	}
	// The failed compile aborts the job only; the host keeps executing its
	// current code and nothing was dispatched.
	if host.Counters().Sub(before).Insts == 0 {
		t.Error("host stalled after failed transform")
	}
	if rt.Dispatched("hot") != nil {
		t.Error("failed compile dispatched something")
	}
}

func TestCompileFaultInjection(t *testing.T) {
	// Jobs 0 and 2 fail by injection; 1 succeeds. Sequence numbers are
	// assigned at request time.
	injected := errors.New("injected")
	fault := func(fn string, job uint64) error {
		if job%2 == 0 {
			return injected
		}
		return nil
	}
	m, host, rt := setup(t, Config{RuntimeCore: 1, CompileFault: fault})
	var errs []error
	for i := 0; i < 3; i++ {
		if err := rt.RequestVariant("hot", Identity, nil, func(v *Variant, err error) {
			errs = append(errs, err)
		}); err != nil {
			t.Fatalf("RequestVariant: %v", err)
		}
	}
	before := host.Counters()
	m.RunQuanta(20)
	if len(errs) != 3 {
		t.Fatalf("%d callbacks, want 3", len(errs))
	}
	if !errors.Is(errs[0], injected) || errs[1] != nil || !errors.Is(errs[2], injected) {
		t.Errorf("errs = %v, want [injected, nil, injected]", errs)
	}
	if len(rt.Variants("hot")) != 1 {
		t.Errorf("Variants(hot) = %d, want 1 (failed jobs must not install)", len(rt.Variants("hot")))
	}
	if host.Counters().Sub(before).Insts == 0 {
		t.Error("host stalled across injected compile failures")
	}
}

func TestCrashSemantics(t *testing.T) {
	m, host, rt := setup(t, Config{RuntimeCore: 1})
	// Dispatch a variant, then queue a compile and crash mid-flight.
	var v *Variant
	rt.RequestVariant("hot", Identity, nil, func(vv *Variant, err error) { v = vv })
	m.RunQuanta(10)
	if v == nil {
		t.Fatal("compile did not finish")
	}
	if err := rt.Dispatch(v); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	called := false
	rt.RequestVariant("hot", Identity, nil, func(*Variant, error) { called = true })
	rt.Crash()
	if !rt.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	before := host.Counters()
	m.RunQuanta(20)
	if called {
		t.Error("pending compile completed after crash")
	}
	if rt.PendingJobs() != 0 {
		t.Errorf("PendingJobs = %d after crash", rt.PendingJobs())
	}
	// Safety property: the host keeps executing; the EVT is untouched (the
	// dispatched variant stays live until a supervisor reverts it).
	if host.Counters().Sub(before).Insts == 0 {
		t.Error("host stalled after runtime crash")
	}
	if host.EVT().Target(host.EVT().SlotFor("hot")) != v.EntryPC {
		t.Error("crash itself rewrote the EVT")
	}
	// Every runtime operation now fails with ErrCrashed.
	if err := rt.RequestVariant("hot", Identity, nil, nil); !errors.Is(err, ErrCrashed) {
		t.Errorf("RequestVariant error = %v, want ErrCrashed", err)
	}
	if err := rt.Dispatch(v); !errors.Is(err, ErrCrashed) {
		t.Errorf("Dispatch error = %v, want ErrCrashed", err)
	}
	if err := rt.Revert("hot"); !errors.Is(err, ErrCrashed) {
		t.Errorf("Revert error = %v, want ErrCrashed", err)
	}
	if err := rt.RevertAll(); !errors.Is(err, ErrCrashed) {
		t.Errorf("RevertAll error = %v, want ErrCrashed", err)
	}
}

func TestSerialCompilePipeline(t *testing.T) {
	m, _, rt := setup(t, Config{RuntimeCore: 1})
	var done []int
	for i := 0; i < 3; i++ {
		i := i
		rt.RequestVariant("hot", Identity, nil, func(*Variant, error) { done = append(done, i) })
	}
	// 3 compiles at 4 ms each, 1 ms quanta: after 5 ms only the first is
	// done.
	m.RunQuanta(5)
	if len(done) != 1 {
		t.Fatalf("after 5ms, %d compiles done, want 1 (serial compiler)", len(done))
	}
	m.RunQuanta(10)
	if len(done) != 3 || done[0] != 0 || done[2] != 2 {
		t.Fatalf("completion order = %v", done)
	}
}

func TestCycleAccounting(t *testing.T) {
	m, _, rt := setup(t, Config{RuntimeCore: 1})
	m.RunQuanta(100)
	monOnly := rt.CyclesUsed()
	if monOnly == 0 {
		t.Error("monitoring consumed no cycles")
	}
	rt.RequestVariant("hot", Identity, nil, nil)
	m.RunQuanta(10)
	withCompile := rt.CyclesUsed()
	if withCompile < monOnly+rt.compileCost {
		t.Errorf("compile cycles unaccounted: %d -> %d", monOnly, withCompile)
	}
	frac := rt.ServerCycleFraction()
	if frac <= 0 || frac > 0.05 {
		t.Errorf("ServerCycleFraction = %v, want small positive", frac)
	}
}

func TestStressRecompiler(t *testing.T) {
	m, host, rt := setup(t, Config{RuntimeCore: 1})
	ms := uint64(m.Config().FreqHz / 1000)
	s := NewStressRecompiler(rt, 5*ms, 42)
	m.AddAgent(s)
	m.RunQuanta(500) // 500 ms: ~55 compile+interval periods of 9 ms
	if n := rt.cCompiles.Value(); n < 20 {
		t.Errorf("completed recompiles = %d, want >= 20", n)
	}
	if n := rt.cCompileFails.Value(); n != 0 {
		t.Errorf("failed recompiles = %d", n)
	}
	if host.Halted() {
		t.Error("host halted under stress")
	}
	// The host must have kept making progress the whole time.
	if host.Counters().Insts == 0 {
		t.Error("host made no progress")
	}
}

func TestStressSameCoreSlowsHost(t *testing.T) {
	run := func(runtimeCore int, interval uint64) uint64 {
		m, host, rt := setup(t, Config{RuntimeCore: runtimeCore})
		s := NewStressRecompiler(rt, interval, 7)
		m.AddAgent(s)
		m.RunQuanta(400)
		return host.Counters().Insts
	}
	ms := uint64(10e6 / 1000)
	separate := run(1, 5*ms)
	same := run(SameCore, 5*ms)
	sameSlow := run(SameCore, 800*ms)
	if float64(same) > float64(separate)*0.8 {
		t.Errorf("same-core stress at 5ms: %d insts vs separate %d; want clear slowdown", same, separate)
	}
	if float64(sameSlow) < float64(separate)*0.95 {
		t.Errorf("same-core at 800ms interval: %d vs separate %d; want negligible overhead", sameSlow, separate)
	}
}

func TestNTTransformMask(t *testing.T) {
	m := hostModule(t)
	clone := m.Clone()
	if err := NTTransform(map[int]bool{1: true})(clone); err != nil {
		t.Fatalf("NTTransform: %v", err)
	}
	loads := clone.Loads()
	if loads[0].NT || !loads[1].NT {
		t.Errorf("mask misapplied: %v %v", loads[0].NT, loads[1].NT)
	}
	// Clearing: applying an empty mask resets everything.
	if err := NTTransform(nil)(clone); err != nil {
		t.Fatalf("NTTransform(nil): %v", err)
	}
	for _, ld := range clone.Loads() {
		if ld.NT {
			t.Error("empty mask left NT bits set")
		}
	}
}

var _ = progbin.ErrNotProtean // progbin is linked via pcc; keep explicit
