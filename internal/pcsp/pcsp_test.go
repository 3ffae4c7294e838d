package pcsp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pcc"
	"repro/internal/workload"
)

func attach(t *testing.T, app string) (*machine.Machine, *machine.Process, *core.Runtime) {
	t.Helper()
	bin, err := workload.MustByName(app).CompileProtean()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := machine.New(machine.Config{Cores: 2})
	p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	rt, err := core.New(core.Config{Machine: m, Host: p, RuntimeCore: 1})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	m.AddAgent(rt)
	return m, p, rt
}

func TestStreamTargets(t *testing.T) {
	mod := workload.MustByName("libquantum").Module()
	ids := streamTargets(mod, "toffoli")
	if len(ids) != 8 {
		t.Errorf("toffoli targets = %d, want 8 innermost seq loads", len(ids))
	}
	// bst chases pointers: nothing prefetchable.
	bst := workload.MustByName("bst").Module()
	if got := streamTargets(bst, "walk"); len(got) != 0 {
		t.Errorf("bst walk targets = %d, want 0", len(got))
	}
	if streamTargets(mod, "missing") != nil {
		t.Error("unknown function returned targets")
	}
}

func TestLeadPrefetchTransform(t *testing.T) {
	mod := workload.MustByName("libquantum").Module()
	ids := streamTargets(mod, "toffoli")
	targets := map[int]bool{}
	for _, id := range ids {
		targets[id] = true
	}
	clone := mod.Clone()
	if err := leadPrefetchTransform("toffoli", targets, 8)(clone); err != nil {
		t.Fatalf("transform: %v", err)
	}
	if err := clone.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	// Load IDs must be unchanged (insertion never renumbers loads).
	if clone.NumLoads != mod.NumLoads {
		t.Fatalf("NumLoads changed: %d -> %d", mod.NumLoads, clone.NumLoads)
	}
	// Each targeted load now has a preceding lead prefetch sharing its
	// MemID.
	f := clone.Func("toffoli")
	found := 0
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			pf, ok := in.(*ir.Prefetch)
			if !ok || pf.Lead == 0 {
				continue
			}
			found++
			ld, ok := b.Instrs[i+1].(*ir.Load)
			if !ok {
				t.Fatalf("lead prefetch not followed by a load")
			}
			if pf.MemID != ld.MemID {
				t.Errorf("prefetch MemID %d != load MemID %d", pf.MemID, ld.MemID)
			}
			if pf.Lead != 8*ld.Acc.Stride {
				t.Errorf("Lead = %d, want %d", pf.Lead, 8*ld.Acc.Stride)
			}
		}
	}
	if found != len(ids) {
		t.Errorf("inserted %d prefetches, want %d", found, len(ids))
	}
	// Untargeted functions untouched.
	if clone.NumMemSites != mod.NumMemSites {
		t.Errorf("NumMemSites changed: %d -> %d (shared MemIDs must not mint new sites)",
			mod.NumMemSites, clone.NumMemSites)
	}
	// The transformed module still compiles and verifies.
	if _, err := pcc.Compile(clone, pcc.Options{Protean: true}); err != nil {
		t.Fatalf("compile transformed: %v", err)
	}
}

func TestPCSPSpeedsUpStreamer(t *testing.T) {
	// Baseline run without PCSP.
	m0, p0, _ := attach(t, "lbm")
	m0.RunSeconds(3)
	c0 := p0.Counters()
	m0.RunSeconds(2)
	baseBPS := float64(p0.Counters().Sub(c0).Branches) / 2

	// With PCSP.
	m, p, rt := attach(t, "lbm")
	ctrl := New(Config{Runtime: rt})
	defer ctrl.Close()
	m.AddAgent(ctrl)
	m.RunSeconds(3)
	if !ctrl.Done() {
		t.Fatal("optimization pass did not finish")
	}
	kept := 0
	for _, r := range ctrl.Results() {
		if r.Kept {
			kept++
			if r.LeadIters == 0 || r.Gain < minGain {
				t.Errorf("kept result inconsistent: %+v", r)
			}
		}
	}
	if kept == 0 {
		t.Fatalf("no variant kept for a pure streamer: %+v", ctrl.Results())
	}
	c1 := p.Counters()
	m.RunSeconds(2)
	optBPS := float64(p.Counters().Sub(c1).Branches) / 2
	if optBPS < baseBPS*1.1 {
		t.Errorf("PCSP BPS %.0f vs baseline %.0f: want >= 1.1x", optBPS, baseBPS)
	}
}

func TestPCSPLeavesNonStreamersAlone(t *testing.T) {
	m, _, rt := attach(t, "bst")
	ctrl := New(Config{Runtime: rt})
	defer ctrl.Close()
	m.AddAgent(ctrl)
	m.RunSeconds(2)
	if !ctrl.Done() {
		t.Fatal("pass did not finish")
	}
	for _, r := range ctrl.Results() {
		if r.Kept {
			t.Errorf("kept a variant on a pointer chaser: %+v", r)
		}
	}
	if rt.Dispatched("walk") != nil {
		t.Error("bst walk left dispatched")
	}
}

func TestPCSPSameBinaryAsPC3D(t *testing.T) {
	// The generality claim: the same protean binary serves both runtimes.
	// Attach PCSP to a binary compiled once, then verify the original code
	// still works after a full optimize cycle (dispatch + possible revert).
	m, p, rt := attach(t, "libquantum")
	ctrl := New(Config{Runtime: rt})
	defer ctrl.Close()
	m.AddAgent(ctrl)
	m.RunSeconds(3)
	if !ctrl.Done() {
		t.Fatal("pass did not finish")
	}
	if err := rt.RevertAll(); err != nil {
		t.Fatalf("revert all: %v", err)
	}
	m.RunSeconds(0.3)
	c0 := p.Counters()
	m.RunSeconds(0.5)
	if p.Counters().Sub(c0).Insts == 0 {
		t.Error("host stalled after revert")
	}
}
