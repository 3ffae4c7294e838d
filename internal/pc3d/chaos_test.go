package pc3d

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/qos"
	"repro/internal/supervise"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// buildBareRig is buildRig without attaching a runtime: supervision tests
// create the runtime (and controller) through a supervise.Builder instead.
func buildBareRig(t testing.TB, extName, hostName string) *rig {
	t.Helper()
	extIPS, hostBPS := soloRates(t, extName, hostName)
	m := machine.New(machine.Config{Cores: 4})
	eb, err := workload.MustByName(extName).CompilePlain()
	if err != nil {
		t.Fatalf("compile ext: %v", err)
	}
	ext, err := m.Attach(0, eb, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach ext: %v", err)
	}
	hb, err := workload.MustByName(hostName).CompileProtean()
	if err != nil {
		t.Fatalf("compile host: %v", err)
	}
	host, err := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach host: %v", err)
	}
	flux := qos.NewFluxMonitor(m, host, ext, 0, 0)
	flux.ReferenceIPS = extIPS
	m.AddAgent(flux)
	return &rig{m: m, host: host, ext: ext, flux: flux, extSolo: extIPS, hostBPS: hostBPS}
}

// TestSupervisedCrashMidSearch is the headline safety property (Section
// III-B): kill the runtime the moment its search has variants dispatched,
// and the host must end the quantum on original static code with the
// supervisor re-attaching and resuming the search — the co-runner's QoS
// never endangered by the recovery itself. Runtimes, controllers and the
// supervisor share one registry, so every count read here is cumulative.
func TestSupervisedCrashMidSearch(t *testing.T) {
	r := buildBareRig(t, "er-naive", "libquantum")
	reg := telemetry.New(telemetry.Config{})
	var ctrls []*Controller
	build := func() (*supervise.Session, error) {
		rt, err := core.New(core.Config{Machine: r.m, Host: r.host, RuntimeCore: 2, Telemetry: reg})
		if err != nil {
			return nil, err
		}
		ctrl := New(Config{Runtime: rt, Steady: r.flux, Window: &qos.FluxWindow{Flux: r.flux, Ext: r.ext}, ExtSig: extSigFromFlux(r.flux), Target: 0.95, Telemetry: reg})
		ctrls = append(ctrls, ctrl)
		return &supervise.Session{Runtime: rt, Policy: ctrl, Close: ctrl.Close}, nil
	}
	// Crash exactly once: on the first quantum where the search has a
	// variant dispatched (EVT rewritten away from static code).
	crashed := false
	sup, err := supervise.New(r.m, r.host, build, supervise.Config{
		CrashFn: func(uint64) bool {
			if !crashed && !supervise.AllStatic(r.host) {
				crashed = true
				return true
			}
			return false
		},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("supervise.New: %v", err)
	}
	r.m.AddAgent(sup)
	defer sup.Close()

	// Run until the crash fires (the first search dispatches within a few
	// seconds), then one more quantum for the supervisor to reap.
	supervised := func(name string) uint64 { return reg.CounterValue("supervise", name) }
	for i := 0; i < 8000 && supervised("reaps_total") == 0; i++ {
		r.m.RunQuanta(1)
	}
	if supervised("reaps_total") != 1 {
		t.Fatal("crash never fired: search dispatched nothing in 8s")
	}
	if len(ctrls) != 1 || ctrls[0].Stats().Searches != 1 {
		t.Fatalf("crash did not land mid-search: %d sessions, stats %+v", len(ctrls), ctrls[0].Stats())
	}
	// The same quantum that observed the crash reverted every EVT slot.
	if !supervise.AllStatic(r.host) {
		t.Fatal("EVT slots not all static immediately after crash recovery")
	}
	if supervised("reverted_slots_total") == 0 {
		t.Error("recovery reverted no slots despite a dispatched variant")
	}
	// The reap unwound the policy from the Wait it was parked in; by now its
	// goroutine is joined. The operations it was in the middle of — the
	// search and the all-hints variant evaluation that dispatched — stay
	// open as one parent chain (the "what was in flight" record a postmortem
	// shows), and everything that finished earlier, the no-hints evaluation
	// and all its probes, is closed.
	open := map[telemetry.SpanID]bool{}
	for _, sp := range reg.OpenSpans() {
		open[sp.ID] = true
	}
	recorded, inFlight := map[string]int{}, map[string]int{}
	var lastEval telemetry.Span
	for _, sp := range reg.Spans() {
		if !strings.HasPrefix(sp.Name, "pc3d.") {
			continue
		}
		recorded[sp.Name]++
		if sp.Name == "pc3d.variant_eval" {
			lastEval = sp
		}
		if open[sp.ID] {
			inFlight[sp.Name]++
			if sp.Parent != 0 && !open[sp.Parent] {
				t.Errorf("open span %s(%d) has a closed parent %d", sp.Name, sp.ID, sp.Parent)
			}
		}
	}
	if recorded["pc3d.search"] != 1 || inFlight["pc3d.search"] != 1 {
		t.Errorf("search spans: %d recorded, %d open; want the one in-flight search left open", recorded["pc3d.search"], inFlight["pc3d.search"])
	}
	if recorded["pc3d.variant_eval"] != 2 || inFlight["pc3d.variant_eval"] != 1 || !open[lastEval.ID] {
		t.Errorf("variant_eval spans: %d recorded, %d open (last open: %v); want the first closed, the second in flight",
			recorded["pc3d.variant_eval"], inFlight["pc3d.variant_eval"], open[lastEval.ID])
	}
	for _, sp := range reg.Spans() {
		if strings.HasPrefix(sp.Name, "pc3d.") && sp.Start < lastEval.Start && sp.Name != "pc3d.search" && open[sp.ID] {
			t.Errorf("span %s(%d) from before the in-flight evaluation is still open", sp.Name, sp.ID)
		}
	}
	if reg.SpanParent() != 0 {
		t.Errorf("ambient span parent %d left set by the unwound policy", reg.SpanParent())
	}

	// The host keeps executing, and the recovery window itself must not
	// tank the co-runner: original code plus the held nap is no more
	// aggressive than what the search was already measuring.
	crashAt := r.m.Now()
	napAtCrash := r.host.NapIntensity()
	e0, h0 := r.ext.Counters(), r.host.Counters()
	r.m.RunSeconds(0.05) // the backoff window, before re-attach
	if r.host.Counters().Sub(h0).Insts == 0 {
		t.Error("host stalled during recovery window")
	}
	qRecovery := float64(r.ext.Counters().Sub(e0).Insts) / 0.05 / r.extSolo
	if qRecovery < 0.70 {
		t.Errorf("co-runner QoS %.3f during recovery window; recovery itself violated QoS", qRecovery)
	}
	if got := r.host.NapIntensity(); got != napAtCrash {
		t.Errorf("recovery changed nap %.3f -> %.3f; it must hold the last safe setting", napAtCrash, got)
	}

	// Re-attach lands within the first backoff (50 ms), and the fresh
	// session resumes searching.
	r.m.RunSeconds(0.1)
	if n := supervised("restarts_total"); n != 1 {
		t.Fatalf("restarts_total = %d shortly after crash, want 1 (capped backoff)", n)
	}
	if !sup.Healthy() {
		t.Fatal("supervisor unhealthy after re-attach")
	}
	restartLag := float64(r.m.Now()-crashAt) / r.m.Config().FreqHz
	if restartLag > 0.2 {
		t.Errorf("re-attach took %.3fs, want within backoff", restartLag)
	}
	r.m.RunSeconds(8)
	if len(ctrls) != 2 {
		t.Fatalf("no second controller built: %d sessions", len(ctrls))
	}
	// The first session's aborted search plus at least one by the second.
	if n := ctrls[1].Stats().Searches; n < 2 {
		t.Errorf("cumulative searches = %d, want >= 2: the restarted controller never resumed the search", n)
	}
	if q, _ := r.steadyState(t, 1.5); q < 0.85 {
		t.Errorf("steady QoS %.3f after recovery, want protected", q)
	}
}

func TestPC3DSurvivesCompileFaults(t *testing.T) {
	chaos := faults.Chaos{Seed: 11, CompileFailProb: 0.3}
	extIPS, _ := soloRates(t, "er-naive", "libquantum")
	m := machine.New(machine.Config{Cores: 4})
	eb, _ := workload.MustByName("er-naive").CompilePlain()
	ext, err := m.Attach(0, eb, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach ext: %v", err)
	}
	hb, _ := workload.MustByName("libquantum").CompileProtean()
	host, err := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach host: %v", err)
	}
	rt, err := core.New(core.Config{Machine: m, Host: host, RuntimeCore: 2, CompileFault: chaos.CompileFault(0)})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	m.AddAgent(rt)
	flux := qos.NewFluxMonitor(m, host, ext, 0, 0)
	flux.ReferenceIPS = extIPS
	m.AddAgent(flux)
	ctrl := New(Config{Runtime: rt, Steady: flux, Window: &qos.FluxWindow{Flux: flux, Ext: ext}, ExtSig: extSigFromFlux(flux), Target: 0.95})
	defer ctrl.Close()
	m.AddAgent(ctrl)

	m.RunSeconds(10)
	st := ctrl.Stats()
	if st.Searches == 0 {
		t.Fatalf("search never ran under compile faults: %+v", st)
	}
	if st.CompileRetries == 0 {
		t.Errorf("no retries recorded at 30%% compile failure rate: %+v", st)
	}
	e0 := ext.Counters()
	m.RunSeconds(1.5)
	q := float64(ext.Counters().Sub(e0).Insts) / 1.5 / extIPS
	if q < 0.82 {
		t.Errorf("QoS %.3f under compile faults, want protected", q)
	}
}

func TestPC3DSurvivesSensorDropouts(t *testing.T) {
	for _, nan := range []bool{false, true} {
		name := "dead"
		if nan {
			name = "nan"
		}
		t.Run(name, func(t *testing.T) {
			chaos := faults.Chaos{Seed: 5, QoSDropoutProb: 0.3, QoSDropoutNaN: nan}.WithDefaults()
			r := buildRig(t, "er-naive", "libquantum", 0.95)
			drop := chaos.DropoutFn(0, r.m.Config().FreqHz)
			steady := &faults.FlakySource{Src: r.flux, M: r.m, Drop: drop, NaN: nan}
			win := &faults.FlakyWindow{Win: &qos.FluxWindow{Flux: r.flux, Ext: r.ext}, Drop: drop, NaN: nan}
			ctrl := New(Config{Runtime: r.rt, Steady: steady, Window: win, ExtSig: extSigFromFlux(r.flux), Target: 0.95})
			defer ctrl.Close()
			r.m.AddAgent(ctrl)

			r.m.RunSeconds(10)
			st := ctrl.Stats()
			if st.Searches == 0 {
				t.Fatalf("search never ran under sensor dropouts: %+v", st)
			}
			if st.SensorDropouts == 0 {
				t.Errorf("no dropouts recorded at 30%% window loss: %+v", st)
			}
			if math.IsNaN(st.CurrentNap) {
				t.Fatal("NaN reached the nap setting")
			}
			if q, _ := r.steadyState(t, 1.5); q < 0.80 {
				t.Errorf("QoS %.3f under dropouts, want protected", q)
			}
		})
	}
}
