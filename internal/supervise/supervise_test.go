package supervise

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/agentloop"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pcc"
	"repro/internal/telemetry"
)

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
	main := mb.Function("main")
	main.Loop(1<<40, func() { main.Call("hot") })
	main.Return()
	mb.SetEntry("main")
	return mb.MustBuild()
}

func hostProc(t testing.TB) (*machine.Machine, *machine.Process) {
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
	return m, host
}

// count reads one of the supervisor's protean_supervise_<name> counters.
func count(reg *telemetry.Registry, name string) int {
	return int(reg.CounterValue("supervise", name))
}

// dispatchPolicy compiles an all-hints variant of "hot", dispatches it, and
// returns (the loop absorbs later ticks). A session reaped while its compile
// is pending is unwound from the Wait. Each incarnation bumps *dispatches when its dispatch lands.
func dispatchPolicy(t *testing.T, rt *core.Runtime, dispatches *int) *Session {
	t.Helper()
	loop := agentloop.New(func(l *agentloop.Loop) {
		mask := map[int]bool{}
		for i := 0; i < rt.IR().NumLoads; i++ {
			mask[i] = true
		}
		var v *core.Variant
		done := false
		if err := rt.RequestVariant("hot", core.NTTransform(mask), nil, func(vv *core.Variant, err error) {
			v, done = vv, true
		}); err != nil {
			return // crashed before we got started
		}
		for !done {
			l.Wait()
		}
		if v == nil {
			return
		}
		if err := rt.Dispatch(v); err != nil {
			return
		}
		*dispatches++
	})
	return &Session{
		Runtime: rt,
		Policy:  machine.AgentFunc(func(m *machine.Machine) { loop.Tick(m) }),
		Close:   loop.Close,
	}
}

func TestCrashRevertsAndRestarts(t *testing.T) {
	m, host := hostProc(t)
	dispatches := 0
	build := func() (*Session, error) {
		rt, err := core.New(core.Config{Machine: m, Host: host, RuntimeCore: 1})
		if err != nil {
			return nil, err
		}
		return dispatchPolicy(t, rt, &dispatches), nil
	}
	crashAt := m.Cycles(0.05)
	reg := telemetry.New(telemetry.Config{})
	sup, err := New(m, host, build, Config{
		CrashFn:   func(now uint64) bool { return now == crashAt },
		Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m.AddAgent(sup)

	// Let the first session dispatch its variant.
	m.RunSeconds(0.03)
	if dispatches != 1 {
		t.Fatalf("dispatches = %d before crash, want 1", dispatches)
	}
	if AllStatic(host) {
		t.Fatal("EVT still static after dispatch")
	}

	// Cross the crash point. The supervisor must revert the EVT the same
	// quantum it observes the crash, and the host must keep running.
	before := host.Counters()
	m.RunSeconds(0.03) // now at 60 ms, past the 50 ms crash
	if n := count(reg, "reaps_total"); n != 1 {
		t.Fatalf("reaps_total = %d, want 1", n)
	}
	if !AllStatic(host) {
		t.Fatal("EVT not reverted to static code after crash")
	}
	if count(reg, "reverted_slots_total") == 0 {
		t.Error("reverted_slots_total = 0, want > 0")
	}
	if host.Counters().Sub(before).Insts == 0 {
		t.Error("host stalled across runtime crash")
	}
	if sup.Healthy() {
		t.Error("Healthy() true while recovering")
	}

	// The re-attach lands within the (first) backoff of 50 ms, and the new
	// session resumes optimizing: a second dispatch appears.
	m.RunSeconds(0.1)
	if n := count(reg, "restarts_total"); n != 1 {
		t.Fatalf("restarts_total = %d, want 1", n)
	}
	if !sup.Healthy() {
		t.Fatal("supervisor not healthy after restart")
	}
	m.RunSeconds(0.05)
	if dispatches != 2 {
		t.Errorf("dispatches = %d after restart, want 2", dispatches)
	}
	sup.Close()
}

func TestCrashLoopBacksOff(t *testing.T) {
	m, host := hostProc(t)
	build := func() (*Session, error) {
		rt, err := core.New(core.Config{Machine: m, Host: host, RuntimeCore: 1})
		if err != nil {
			return nil, err
		}
		return &Session{Runtime: rt}, nil
	}
	// Every session dies on its first tick: a pathological crash loop.
	reg := telemetry.New(telemetry.Config{})
	sup, err := New(m, host, build, Config{
		CrashFn:   func(uint64) bool { return true },
		Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m.AddAgent(sup)
	before := host.Counters()
	m.RunSeconds(10)
	restarts, reaps := count(reg, "restarts_total"), count(reg, "reaps_total")
	// Backoff doubles 50ms -> 1s cap: ~13 restarts in 10s, not thousands.
	if restarts < 5 || restarts > 25 {
		t.Errorf("restarts_total = %d over 10s crash loop, want backoff-bounded (5..25)", restarts)
	}
	if reaps < restarts {
		t.Errorf("reaps_total = %d < restarts_total = %d", reaps, restarts)
	}
	if !AllStatic(host) {
		t.Error("EVT not static during crash loop")
	}
	if host.Counters().Sub(before).Insts == 0 {
		t.Error("host starved by crash loop")
	}
}

// TestTelemetryEventOrderAndCappedBackoff drives a crash loop with a live
// registry and checks the telemetry plane's view of it: reap and re-attach
// events strictly alternate in simulated-time order, the backoff gauge
// grows to the configured cap and no further, and the counters agree with
// the events.
func TestTelemetryEventOrderAndCappedBackoff(t *testing.T) {
	reg := telemetry.New(telemetry.Config{})
	m, host := hostProc(t)
	build := func() (*Session, error) {
		rt, err := core.New(core.Config{Machine: m, Host: host, RuntimeCore: 1, Telemetry: reg})
		if err != nil {
			return nil, err
		}
		return &Session{Runtime: rt}, nil
	}
	const backoffMax = 0.4
	sup, err := New(m, host, build, Config{
		CrashFn:           func(uint64) bool { return true },
		BackoffMaxSeconds: backoffMax,
		Telemetry:         reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m.AddAgent(sup)
	m.RunSeconds(5)
	if n := count(reg, "reaps_total"); n < 3 {
		t.Fatalf("reaps_total = %d over 5s crash loop, want several", n)
	}
	if got := reg.GaugeValue("supervise", "backoff_seconds"); got != backoffMax {
		t.Errorf("backoff_seconds gauge = %v after a sustained crash loop, want capped at %v", got, backoffMax)
	}

	// Events alternate reap, reattach, reap, ... in non-decreasing
	// simulated time, and every reap's recorded backoff never exceeds the
	// cap.
	var seen []telemetry.Event
	for _, ev := range reg.Events() {
		if ev.Kind == telemetry.EvReap || ev.Kind == telemetry.EvReattach {
			seen = append(seen, ev)
		}
	}
	if len(seen) < 5 {
		t.Fatalf("only %d supervision events traced", len(seen))
	}
	kinds := map[telemetry.EventKind]int{}
	for _, ev := range seen {
		kinds[ev.Kind]++
	}
	if r, a := count(reg, "reaps_total"), count(reg, "restarts_total"); kinds[telemetry.EvReap] != r || kinds[telemetry.EvReattach] != a {
		t.Errorf("traced %d reaps, %d re-attaches; counters say %d, %d", kinds[telemetry.EvReap], kinds[telemetry.EvReattach], r, a)
	}
	var prevAt uint64
	for i, ev := range seen {
		want := telemetry.EvReap
		if i%2 == 1 {
			want = telemetry.EvReattach
		}
		if ev.Kind != want {
			t.Fatalf("event %d = %s, want %s (reap/re-attach must alternate)", i, ev.Kind, want)
		}
		if ev.At < prevAt {
			t.Fatalf("event %d at cycle %d precedes event %d at %d", i, ev.At, i-1, prevAt)
		}
		prevAt = ev.At
		if ev.Kind == telemetry.EvReap {
			backoff, err := strconv.ParseFloat(ev.Detail, 64)
			if err != nil {
				t.Fatalf("reap detail %q: %v", ev.Detail, err)
			}
			if backoff > backoffMax {
				t.Errorf("reap %d scheduled backoff %v beyond cap %v", i, backoff, backoffMax)
			}
		}
	}
}

func TestBuilderFailureExtendsBackoff(t *testing.T) {
	m, host := hostProc(t)
	calls := 0
	build := func() (*Session, error) {
		calls++
		if calls == 2 {
			return nil, errors.New("attach refused")
		}
		rt, err := core.New(core.Config{Machine: m, Host: host, RuntimeCore: 1})
		if err != nil {
			return nil, err
		}
		return &Session{Runtime: rt}, nil
	}
	crashAt := m.Cycles(0.01)
	reg := telemetry.New(telemetry.Config{})
	sup, err := New(m, host, build, Config{
		CrashFn:   func(now uint64) bool { return now == crashAt },
		Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m.AddAgent(sup)
	m.RunSeconds(1)
	if n := count(reg, "restart_failures_total"); n != 1 {
		t.Errorf("restart_failures_total = %d, want 1", n)
	}
	if n := count(reg, "restarts_total"); n != 1 {
		t.Errorf("restarts_total = %d, want 1 (second attempt succeeds)", n)
	}
	if !sup.Healthy() {
		t.Error("supervisor not healthy after eventual restart")
	}
}
