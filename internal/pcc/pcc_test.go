package pcc

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/progbin"
)

func buildModule(t *testing.T) *ir.Module {
	t.Helper()
	mb := ir.NewModuleBuilder("app")
	mb.Global("g", 1<<16)

	multi := mb.Function("multi")
	multi.Loop(50, func() {
		multi.Load(ir.Access{Global: "g", Pattern: ir.Seq, Stride: 64})
	})
	multi.Return()

	single := mb.Function("single")
	single.Load(ir.Access{Global: "g", Pattern: ir.Rand})
	single.Return()

	uncalled := mb.Function("uncalled")
	uncalled.Loop(10, func() { uncalled.Work(1) })
	uncalled.Return()

	main := mb.Function("main")
	main.Loop(10, func() {
		main.Call("multi")
		main.Call("single")
	})
	main.Return()
	mb.SetEntry("main")

	m, err := mb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestCompilePlain(t *testing.T) {
	b, err := Compile(buildModule(t), Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if b.Protean || b.HasIR() {
		t.Error("plain compile produced protean metadata")
	}
	s := StatsOf(b)
	if s.VirtualizedCalls != 0 || s.EVTSlots != 0 {
		t.Errorf("plain compile virtualized edges: %+v", s)
	}
	if s.DirectCalls != 2 {
		t.Errorf("DirectCalls = %d, want 2", s.DirectCalls)
	}
}

func TestCompileProteanDefaultPolicy(t *testing.T) {
	b, err := Compile(buildModule(t), Options{Protean: true})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !b.Protean || !b.HasIR() {
		t.Fatal("protean compile lacks metadata")
	}
	s := StatsOf(b)
	// Only "multi" qualifies: multi-block AND called. "single" is one
	// block; "uncalled" is multi-block but never called; "main" is the
	// entry and never called.
	if s.EVTSlots != 1 {
		t.Errorf("EVTSlots = %d, want 1", s.EVTSlots)
	}
	if !hasEVTSlot(b, "multi") {
		t.Error("multi not virtualized")
	}
	if s.VirtualizedCalls != 1 || s.DirectCalls != 1 {
		t.Errorf("calls virtualized=%d direct=%d, want 1/1", s.VirtualizedCalls, s.DirectCalls)
	}
	if s.IRBlobBytes == 0 {
		t.Error("IR blob empty")
	}
}

func TestCompileAllCallsPolicy(t *testing.T) {
	b, err := Compile(buildModule(t), Options{Protean: true, Policy: AllCalls})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s := StatsOf(b)
	if s.VirtualizedCalls != 2 || s.DirectCalls != 0 {
		t.Errorf("AllCalls: virtualized=%d direct=%d, want 2/0", s.VirtualizedCalls, s.DirectCalls)
	}
	if !hasEVTSlot(b, "single") {
		t.Error("AllCalls should virtualize single-block callees too")
	}
}

func TestCompileNoEdgesPolicy(t *testing.T) {
	b, err := Compile(buildModule(t), Options{Protean: true, Policy: NoEdges})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s := StatsOf(b)
	if s.VirtualizedCalls != 0 {
		t.Errorf("NoEdges virtualized %d calls", s.VirtualizedCalls)
	}
	if !b.HasIR() {
		t.Error("NoEdges should still embed IR")
	}
}

func TestEmbeddedIRRoundTrips(t *testing.T) {
	m := buildModule(t)
	b, err := Compile(m, Options{Protean: true})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	got, err := b.DecodeIR()
	if err != nil {
		t.Fatalf("DecodeIR: %v", err)
	}
	if got.NumLoads != m.NumLoads {
		t.Errorf("embedded IR NumLoads = %d, want %d", got.NumLoads, m.NumLoads)
	}
	if got.Func("multi") == nil || got.Func("main") == nil {
		t.Error("embedded IR missing functions")
	}
}

func TestProteanAndPlainSameCodeShape(t *testing.T) {
	// The protean binary differs from the plain one only in call lowering:
	// same instruction count, same loads, same branches. This is the static
	// basis of the "<1% overhead" property.
	m := buildModule(t)
	plain, err := Compile(m, Options{})
	if err != nil {
		t.Fatalf("Compile plain: %v", err)
	}
	prot, err := Compile(m, Options{Protean: true})
	if err != nil {
		t.Fatalf("Compile protean: %v", err)
	}
	if len(plain.Program.Code) != len(prot.Program.Code) {
		t.Errorf("code sizes differ: plain %d vs protean %d",
			len(plain.Program.Code), len(prot.Program.Code))
	}
	if plain.Program.NumLoads != prot.Program.NumLoads {
		t.Error("load counts differ")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []EdgePolicy{MultiBlockCallees, AllCalls, NoEdges} {
		if p.String() == "" {
			t.Errorf("empty String for policy %d", int(p))
		}
	}
}

func TestCompileOptimize(t *testing.T) {
	mb := ir.NewModuleBuilder("keep")
	mb.Global("g", 64)
	fb := mb.Function("main")
	fb.Work(5)
	fb.Load(ir.Access{Global: "g", Pattern: ir.Rand})
	fb.Return()
	mb.SetEntry("main")
	m := mb.MustBuild()
	nInstrs := len(m.Func("main").Blocks[0].Instrs)

	binO, err := Compile(m, Options{Optimize: true})
	if err != nil {
		t.Fatalf("compile -O: %v", err)
	}
	bin, err := Compile(m, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(m.Func("main").Blocks[0].Instrs) != nInstrs {
		t.Error("Compile(Optimize) mutated the caller's module")
	}
	if len(binO.Program.Code) >= len(bin.Program.Code) {
		t.Errorf("optimized code %d words, unoptimized %d: expected shrink",
			len(binO.Program.Code), len(bin.Program.Code))
	}
}

// hasEVTSlot reports whether b's EVT has a slot dispatching to callee.
func hasEVTSlot(b *progbin.Binary, callee string) bool {
	return slices.ContainsFunc(b.Program.EVT, func(e isa.EVTEntry) bool { return e.Callee == callee })
}
