package pc3d

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/phase"
	"repro/internal/qos"
	"repro/internal/reqos"
	"repro/internal/sampling"
	"repro/internal/workload"
)

func TestBuildSearchSpace(t *testing.T) {
	mod := workload.MustByName("libquantum").Module()
	prof := sampling.Profile{"toffoli": 700, "sigma_x": 250, "main": 50}
	ss := BuildSearchSpace(mod, prof.Deep())
	if ss.TotalLoads != 636 {
		t.Errorf("TotalLoads = %d, want 636", ss.TotalLoads)
	}
	// Covered: toffoli (8 deep + 20 shallow), sigma_x (6 + 19), main (0).
	if len(ss.Covered) != 53 {
		t.Errorf("Covered = %d, want 53", len(ss.Covered))
	}
	if len(ss.Sites) != 14 {
		t.Errorf("Sites = %d, want 14", len(ss.Sites))
	}
	// Hotter function's loads come first.
	for i, id := range ss.Sites {
		fn := ss.FuncOf[id]
		if i < 8 && fn != "toffoli" {
			t.Fatalf("site %d from %s, want toffoli first (hotter)", i, fn)
		}
		if i >= 8 && fn != "sigma_x" {
			t.Fatalf("site %d from %s, want sigma_x after toffoli", i, fn)
		}
	}
	funcs := ss.Funcs()
	if len(funcs) != 2 || funcs[0] != "toffoli" || funcs[1] != "sigma_x" {
		t.Errorf("Funcs = %v", funcs)
	}
	covX, maxX := ss.ReductionFactors()
	if covX < 10 || covX > 14 {
		t.Errorf("covered reduction %.1fx, want ~12x", covX)
	}
	if maxX < 40 || maxX > 50 {
		t.Errorf("max-depth reduction %.1fx, want ~45x", maxX)
	}
}

// TestSearchSpaceBlockHeatOrdersSitesWithinFunction: two loads in one hot
// function, sitting in different innermost loops, must rank by the heat of
// their own blocks — the block-granular refinement of "Prioritize Hotter
// Code". With equal block heat the order falls back to load ID.
func TestSearchSpaceBlockHeatOrdersSitesWithinFunction(t *testing.T) {
	mb := ir.NewModuleBuilder("blockheat")
	mb.Global("g", 1<<20)
	fb := mb.Function("f")
	fb.Loop(64, func() { fb.Load(ir.Access{Global: "g", Pattern: ir.Seq, Stride: 64}) })
	fb.Loop(64, func() { fb.Load(ir.Access{Global: "g", Pattern: ir.Seq, Stride: 64}) })
	fb.Return()
	main := mb.Function("main")
	main.Call("f")
	main.Return()
	mb.SetEntry("main")
	mod := mb.MustBuild()

	// Locate each load's enclosing block straight from the IR.
	blockOf := map[int]string{}
	var ids []int
	for _, b := range mod.Func("f").Blocks {
		for _, in := range b.Instrs {
			if ld, ok := in.(*ir.Load); ok {
				blockOf[ld.ID] = b.Name
				ids = append(ids, ld.ID)
			}
		}
	}
	if len(ids) != 2 || blockOf[ids[0]] == blockOf[ids[1]] {
		t.Fatalf("fixture: want 2 loads in distinct blocks, got ids=%v blocks=%v", ids, blockOf)
	}

	// The layout-later load's block is far hotter: it must rank first.
	prof := sampling.NewDeepProfile()
	prof.Add("f", blockOf[ids[0]], -1, 10)
	prof.Add("f", blockOf[ids[1]], -1, 900)
	ss := BuildSearchSpace(mod, prof)
	if len(ss.Sites) != 2 || ss.Sites[0] != ids[1] || ss.Sites[1] != ids[0] {
		t.Errorf("Sites = %v, want [%d %d] (block heat ordering)", ss.Sites, ids[1], ids[0])
	}

	// Function-granularity profile (no block heat): load-ID order.
	flat := BuildSearchSpace(mod, sampling.Profile{"f": 910}.Deep())
	if len(flat.Sites) != 2 || flat.Sites[0] != ids[0] || flat.Sites[1] != ids[1] {
		t.Errorf("flat Sites = %v, want [%d %d] (ID fallback)", flat.Sites, ids[0], ids[1])
	}
}

func TestSearchSpaceUncoveredExcluded(t *testing.T) {
	mod := workload.MustByName("libquantum").Module()
	// Only toffoli sampled: sigma_x and all cold functions excluded.
	ss := BuildSearchSpace(mod, sampling.Profile{"toffoli": 100}.Deep())
	if len(ss.Sites) != 8 {
		t.Errorf("Sites = %d, want 8 (toffoli only)", len(ss.Sites))
	}
	if len(ss.Covered) != 28 {
		t.Errorf("Covered = %d, want 28", len(ss.Covered))
	}
	// Empty profile: nothing searchable.
	ss0 := BuildSearchSpace(mod, sampling.Profile{}.Deep())
	if len(ss0.Sites) != 0 || len(ss0.Covered) != 0 {
		t.Error("empty profile produced a non-empty space")
	}
	if _, maxX := ss0.ReductionFactors(); maxX != 0 {
		t.Error("empty space should report 0 reduction")
	}
}

// rig is a co-location experiment: ext (high priority) on core 0, protean
// host on core 1, runtime on core 2.
type rig struct {
	m       *machine.Machine
	host    *machine.Process
	ext     *machine.Process
	rt      *core.Runtime
	flux    *qos.FluxMonitor
	extSolo float64
	hostBPS float64 // host solo plain BPS
}

func soloRates(t testing.TB, ext, host string) (extIPS, hostBPS float64) {
	t.Helper()
	run := func(name string) (float64, float64) {
		spec := workload.MustByName(name)
		bin, err := spec.CompilePlain()
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		m := machine.New(machine.Config{Cores: 4})
		p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
		if err != nil {
			t.Fatalf("attach %s: %v", name, err)
		}
		m.RunSeconds(0.5) // warm
		c0 := p.Counters()
		m.RunSeconds(1.5)
		d := p.Counters().Sub(c0)
		return float64(d.Insts) / 1.5, float64(d.Branches) / 1.5
	}
	extIPS, _ = run(ext)
	_, hostBPS = run(host)
	return
}

func buildRig(t testing.TB, extName, hostName string, target float64) *rig {
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
	rt, err := core.New(core.Config{Machine: m, Host: host, RuntimeCore: 2})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	m.AddAgent(rt)
	flux := qos.NewFluxMonitor(m, host, ext, 0, 0)
	flux.ReferenceIPS = extIPS
	m.AddAgent(flux)
	return &rig{m: m, host: host, ext: ext, rt: rt, flux: flux, extSolo: extIPS, hostBPS: hostBPS}
}

// steadyState measures true QoS and utilization over a trailing window.
func (r *rig) steadyState(t testing.TB, seconds float64) (qosTrue, util float64) {
	t.Helper()
	e0, h0 := r.ext.Counters(), r.host.Counters()
	r.m.RunSeconds(seconds)
	ed := r.ext.Counters().Sub(e0)
	hd := r.host.Counters().Sub(h0)
	qosTrue = float64(ed.Insts) / seconds / r.extSolo
	util = float64(hd.Branches) / seconds / r.hostBPS
	return
}

func extSigFromFlux(f *qos.FluxMonitor) func(*machine.Machine) phase.Signature {
	return func(*machine.Machine) phase.Signature {
		solo, _ := f.SoloIPS()
		return phase.Signature{Rate: solo}
	}
}

func TestPC3DProtectsQoSWithStreamingHost(t *testing.T) {
	r := buildRig(t, "er-naive", "libquantum", 0.95)
	ctrl := New(Config{Runtime: r.rt, Steady: r.flux, Window: &qos.FluxWindow{Flux: r.flux, Ext: r.ext}, ExtSig: extSigFromFlux(r.flux), Target: 0.95})
	defer ctrl.Close()
	r.m.AddAgent(ctrl)

	// Let the search run and settle.
	r.m.RunSeconds(8)
	st := ctrl.Stats()
	if st.Searches < 1 {
		t.Fatalf("no search ran: %+v", st)
	}
	if st.BestMaskSize == 0 {
		t.Errorf("streaming host should keep some hints: %+v", st)
	}

	q, util := r.steadyState(t, 1.5)
	if q < 0.88 {
		t.Errorf("true co-runner QoS = %.3f, target 0.95", q)
	}
	if util < 0.5 {
		t.Errorf("host utilization = %.3f; hints should allow high throughput", util)
	}
	// The runtime must stay cheap (Figure 7: < 1% of server cycles,
	// excluding the initial search burst; allow slack here).
	if frac := r.rt.ServerCycleFraction(); frac > 0.05 {
		t.Errorf("runtime consumed %.3f of server cycles", frac)
	}
}

func TestPC3DBeatsReQoSOnStreamingHost(t *testing.T) {
	target := 0.95

	// PC3D.
	r1 := buildRig(t, "er-naive", "libquantum", target)
	ctrl := New(Config{Runtime: r1.rt, Steady: r1.flux, Window: &qos.FluxWindow{Flux: r1.flux, Ext: r1.ext}, ExtSig: extSigFromFlux(r1.flux), Target: target})
	defer ctrl.Close()
	r1.m.AddAgent(ctrl)
	r1.m.RunSeconds(8)
	q1, u1 := r1.steadyState(t, 2)

	// ReQoS.
	r2 := buildRig(t, "er-naive", "libquantum", target)
	rq := reqos.New(reqos.Config{Host: r2.host, Source: r2.flux, Target: target})
	r2.m.AddAgent(rq)
	r2.m.RunSeconds(8)
	q2, u2 := r2.steadyState(t, 2)

	if q1 < 0.85 || q2 < 0.85 {
		t.Errorf("QoS not protected: pc3d=%.3f reqos=%.3f", q1, q2)
	}
	if u1 < u2*1.3 {
		t.Errorf("PC3D utilization %.3f vs ReQoS %.3f: want >= 1.3x on a streaming host", u1, u2)
	}
}

func TestPC3DNoInterventionWhenQoSMet(t *testing.T) {
	// bzip2 is gentle: QoS stays above target, so PC3D should neither nap
	// nor transform.
	r := buildRig(t, "er-naive", "bzip2", 0.6)
	ctrl := New(Config{Runtime: r.rt, Steady: r.flux, Window: &qos.FluxWindow{Flux: r.flux, Ext: r.ext}, ExtSig: extSigFromFlux(r.flux), Target: 0.6})
	defer ctrl.Close()
	r.m.AddAgent(ctrl)
	r.m.RunSeconds(4)
	st := ctrl.Stats()
	if st.Searches != 0 {
		t.Errorf("search ran despite QoS being met: %+v", st)
	}
	if st.CurrentNap > 0.01 {
		t.Errorf("nap %.2f applied despite QoS being met", st.CurrentNap)
	}
	_, util := r.steadyState(t, 1)
	if util < 0.9 {
		t.Errorf("host utilization %.3f; should run at full speed", util)
	}
}

func TestPC3DFallsBackToNapping(t *testing.T) {
	// er-naive as host: its pressure comes from reused random accesses, so
	// hints cost it its own hits; PC3D should end up relying substantially
	// on napping (possibly with an empty or tiny mask) while protecting
	// QoS.
	r := buildRig(t, "er-naive", "er-naive", 0.95)
	ctrl := New(Config{Runtime: r.rt, Steady: r.flux, Window: &qos.FluxWindow{Flux: r.flux, Ext: r.ext}, ExtSig: extSigFromFlux(r.flux), Target: 0.95})
	defer ctrl.Close()
	r.m.AddAgent(ctrl)
	r.m.RunSeconds(8)
	q, _ := r.steadyState(t, 2)
	if q < 0.85 {
		t.Errorf("QoS %.3f not protected by fallback", q)
	}
	st := ctrl.Stats()
	if st.Searches == 0 {
		t.Error("no search ran")
	}
}

func TestStatsSnapshot(t *testing.T) {
	r := buildRig(t, "er-naive", "libquantum", 0.95)
	ctrl := New(Config{Runtime: r.rt, Steady: r.flux, Window: &qos.FluxWindow{Flux: r.flux, Ext: r.ext}, ExtSig: extSigFromFlux(r.flux), Target: 0.95})
	defer ctrl.Close()
	r.m.AddAgent(ctrl)
	r.m.RunSeconds(6)
	st := ctrl.Stats()
	if st.VariantEvals == 0 || st.NapProbes == 0 || st.Compiles == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	if ctrl.Space().TotalLoads != 636 {
		t.Errorf("space TotalLoads = %d", ctrl.Space().TotalLoads)
	}
}
