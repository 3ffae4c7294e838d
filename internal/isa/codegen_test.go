package isa

import (
	"slices"
	"testing"

	"repro/internal/ir"
)

// testModule builds main -> {hot (loop, loads), tiny (one block)}.
func testModule(t *testing.T) *ir.Module {
	t.Helper()
	mb := ir.NewModuleBuilder("test")
	mb.Global("buf", 1<<16)
	mb.Global("tab", 1<<12)

	hot := mb.Function("hot")
	hot.Loop(100, func() {
		hot.Load(ir.Access{Global: "buf", Pattern: ir.Seq, Stride: 64})
		hot.Work(2)
	})
	hot.Return()

	tiny := mb.Function("tiny")
	tiny.Load(ir.Access{Global: "tab", Pattern: ir.Rand})
	tiny.Return()

	main := mb.Function("main")
	main.Loop(10, func() {
		main.Call("hot")
		main.Call("tiny")
	})
	main.Return()

	mb.SetEntry("main")
	m, err := mb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// multiBlock reports whether the callee has more than one basic block —
// the paper's edge-virtualization policy.
func multiBlock(_ *ir.Module, f *ir.Function) bool { return len(f.Blocks) > 1 }

func TestLowerPlain(t *testing.T) {
	m := testModule(t)
	p, err := Lower(m, Config{})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if len(p.EVT) != 0 {
		t.Errorf("plain lowering produced %d EVT slots, want 0", len(p.EVT))
	}
	v, d := p.CountVirtualizedCalls()
	if v != 0 || d != 2 {
		t.Errorf("calls: virtualized=%d direct=%d, want 0/2", v, d)
	}
	if p.NumLoads != 2 {
		t.Errorf("NumLoads = %d, want 2", p.NumLoads)
	}
	if fi, ok := p.FuncAt(p.EntryPC); !ok || fi.Name != "main" {
		t.Errorf("FuncAt(entry) = %+v, %v", fi, ok)
	}
}

func TestLowerVirtualized(t *testing.T) {
	m := testModule(t)
	p, err := Lower(m, Config{Virtualize: multiBlock})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	// hot and main have loops (multi-block); tiny has a single block.
	// Only functions that are actually called matter for dispatch, but
	// slots exist for every multi-block function.
	slot := func(callee string) bool {
		return slices.ContainsFunc(p.EVT, func(e EVTEntry) bool { return e.Callee == callee })
	}
	if !slot("hot") {
		t.Error("hot has no EVT slot")
	}
	if slot("tiny") {
		t.Error("tiny (single block) should not be virtualized")
	}
	v, d := p.CountVirtualizedCalls()
	if v != 1 || d != 1 {
		t.Errorf("calls: virtualized=%d direct=%d, want 1/1", v, d)
	}
	// EVT initial targets must equal the static entries.
	for _, e := range p.EVT {
		fi, ok := p.FuncByName(e.Callee)
		if !ok {
			t.Fatalf("EVT references unknown function %q", e.Callee)
		}
		if e.Target != fi.Entry {
			t.Errorf("EVT[%s] target %d, want entry %d", e.Callee, e.Target, fi.Entry)
		}
	}
}

func TestLowerGlobalPlacement(t *testing.T) {
	m := testModule(t)
	p, err := Lower(m, Config{})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if len(p.Globals) != 2 {
		t.Fatalf("globals = %d, want 2", len(p.Globals))
	}
	if p.Globals[0].Base == 0 {
		t.Error("first global placed at address 0")
	}
	if p.Globals[0].Base%4096 != 0 || p.Globals[1].Base%4096 != 0 {
		t.Error("globals not page aligned")
	}
	if p.Globals[1].Base < p.Globals[0].Base+p.Globals[0].Size {
		t.Error("globals overlap")
	}
	if p.AddrSpace < p.Globals[1].Base+p.Globals[1].Size {
		t.Error("AddrSpace does not cover all globals")
	}
}

func TestLowerBranchTargetsInRange(t *testing.T) {
	m := testModule(t)
	p, err := Lower(m, Config{Virtualize: multiBlock})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	for pc, in := range p.Code {
		switch in.Op {
		case OpBr, OpJmp, OpCall:
			if in.Target < 0 || in.Target >= len(p.Code) {
				t.Errorf("pc %d (%s): target %d out of range", pc, in, in.Target)
			}
		case OpCallEVT:
			if in.EVTSlot < 0 || in.EVTSlot >= len(p.EVT) {
				t.Errorf("pc %d: EVT slot %d out of range", pc, in.EVTSlot)
			}
		}
	}
	// Every branch target inside a function must stay in that function.
	for _, fi := range p.Funcs {
		for pc := fi.Entry; pc < fi.End; pc++ {
			in := p.Code[pc]
			if in.Op == OpBr || in.Op == OpJmp {
				if in.Target < fi.Entry || in.Target >= fi.End {
					t.Errorf("%s pc %d: branch escapes function to %d", fi.Name, pc, in.Target)
				}
			}
		}
	}
}

func TestLowerSitesDense(t *testing.T) {
	m := testModule(t)
	p, err := Lower(m, Config{})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	seen := make(map[int]bool)
	for _, in := range p.Code {
		switch in.Op {
		case OpLoad, OpStore, OpPrefetch:
			// MemIDs (and therefore sites) are 1-based; 0 is reserved.
			if in.Gen.Site < 1 || in.Gen.Site >= p.NumSites {
				t.Errorf("site %d out of range [1,%d)", in.Gen.Site, p.NumSites)
			}
			if seen[in.Gen.Site] {
				t.Errorf("site %d assigned twice", in.Gen.Site)
			}
			seen[in.Gen.Site] = true
		}
	}
	if len(seen) != p.NumSites-1 {
		t.Errorf("found %d sites, NumSites=%d (want dense 1-based)", len(seen), p.NumSites)
	}
}

func TestLowerNTLoadEmitsPrefetch(t *testing.T) {
	mb := ir.NewModuleBuilder("nt")
	mb.Global("g", 4096)
	fb := mb.Function("main")
	fb.Load(ir.Access{Global: "g", Pattern: ir.Seq})
	fb.Return()
	mb.SetEntry("main")
	m := mb.MustBuild()

	m.Loads()[0].NT = true
	p, err := Lower(m, Config{})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	var sawPrefetch, sawNTLoad bool
	for i, in := range p.Code {
		if in.Op == OpPrefetch && in.NT {
			sawPrefetch = true
			if i+1 < len(p.Code) && p.Code[i+1].Op == OpLoad {
				if !p.Code[i+1].NT {
					t.Error("load after prefetchnta not flagged NT")
				}
				sawNTLoad = true
			}
		}
	}
	if !sawPrefetch || !sawNTLoad {
		t.Errorf("prefetchnta+NT load pair not emitted: prefetch=%v load=%v", sawPrefetch, sawNTLoad)
	}
}

func TestNTVariantAddsOnlyNonBranchInstrs(t *testing.T) {
	m := testModule(t)
	plain, err := Lower(m, Config{Virtualize: multiBlock})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	mNT := m.Clone()
	for _, ld := range mNT.Loads() {
		ld.NT = true
	}
	nt, err := Lower(mNT, Config{Virtualize: multiBlock})
	if err != nil {
		t.Fatalf("Lower NT: %v", err)
	}
	branches := func(p *Program) int {
		n := 0
		for _, in := range p.Code {
			switch in.Op {
			case OpBr, OpJmp, OpCall, OpCallEVT, OpRet:
				n++
			}
		}
		return n
	}
	if branches(plain) != branches(nt) {
		t.Errorf("static branch count changed: %d vs %d", branches(plain), branches(nt))
	}
	if len(nt.Code) != len(plain.Code)+2 {
		t.Errorf("NT version adds %d instructions, want 2 (one per load)", len(nt.Code)-len(plain.Code))
	}
}

func TestLowerVariantLinksAgainstProgram(t *testing.T) {
	m := testModule(t)
	p, err := Lower(m, Config{Virtualize: multiBlock})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	// Transform a clone: flip all loads in "hot" to NT.
	clone := m.Clone()
	for _, f := range clone.Funcs {
		if f.Name != "hot" {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if ld, ok := in.(*ir.Load); ok {
					ld.NT = true
				}
			}
		}
	}
	basePC := len(p.Code) + 100
	vr, err := LowerVariant(p, clone, "hot", 1, basePC)
	if err != nil {
		t.Fatalf("LowerVariant: %v", err)
	}
	if vr.Info.Entry != basePC || vr.Info.End != basePC+len(vr.Code) {
		t.Errorf("variant extent [%d,%d) inconsistent with basePC %d len %d",
			vr.Info.Entry, vr.Info.End, basePC, len(vr.Code))
	}
	if vr.Info.Variant != 1 || vr.Info.Name != "hot" {
		t.Errorf("variant info = %+v", vr.Info)
	}
	if vr.NumSites == 0 {
		t.Error("variant introduced no memory sites")
	}
	// All intra-variant branches must stay inside the fragment.
	for i, in := range vr.Code {
		if in.Op == OpBr || in.Op == OpJmp {
			if in.Target < basePC || in.Target >= basePC+len(vr.Code) {
				t.Errorf("variant inst %d: branch target %d escapes fragment", i, in.Target)
			}
		}
		// Variant memory sites must be the *same* stable MemID sites as the
		// original program's (shared cursor state), never fresh ones.
		if in.Op == OpLoad || in.Op == OpStore || in.Op == OpPrefetch {
			if in.Gen.Site < 0 || in.Gen.Site >= p.NumSites {
				t.Errorf("variant site %d outside program sites [0,%d)", in.Gen.Site, p.NumSites)
			}
		}
	}
	// The variant's NT load must carry the same site as the original hot
	// load in the program.
	var origSite = -1
	for _, in := range p.Code {
		if in.Op == OpLoad && in.Gen.Pattern == ir.Seq {
			origSite = in.Gen.Site
		}
	}
	foundNT := false
	for _, in := range vr.Code {
		if in.Op == OpLoad && in.NT {
			foundNT = true
			if in.Gen.Site != origSite {
				t.Errorf("variant NT load site %d, want original's %d", in.Gen.Site, origSite)
			}
		}
	}
	if !foundNT {
		t.Error("variant has no NT loads despite transformation")
	}
}

func TestLowerVariantUnknownFunction(t *testing.T) {
	m := testModule(t)
	p, err := Lower(m, Config{})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if _, err := LowerVariant(p, m, "missing", 1, 0); err == nil {
		t.Fatal("LowerVariant accepted unknown function")
	}
}

func TestInstStrings(t *testing.T) {
	ins := []Inst{
		{Op: OpALU, Dst: 1, X: 2, Bin: ir.Add, YImm: 3},
		{Op: OpConst, Dst: 0, YImm: 7},
		{Op: OpLoad, Dst: 2, Gen: AddrGen{Site: 5}},
		{Op: OpPrefetch, NT: true, Gen: AddrGen{Site: 1}},
		{Op: OpBr, X: 1, Cmp: ir.Lt, YImm: 10, Target: 4},
		{Op: OpCallEVT, EVTSlot: 2},
		{Op: OpRet},
	}
	for _, in := range ins {
		if in.String() == "?" || in.String() == "" {
			t.Errorf("bad String for %v: %q", in.Op, in.String())
		}
	}
}

// TestTextWrittenAtExactSize holds textLen to what lowerFunc emits, on a
// module with every shape that emits more than one instruction: an
// immediate ALU X, an NT load, and branches whose false edge does and does
// not fall through. Lower and LowerVariant then return text whose capacity
// is its length.
func TestTextWrittenAtExactSize(t *testing.T) {
	mb := ir.NewModuleBuilder("shapes")
	mb.Global("buf", 1<<16)
	f := mb.Function("f")
	x := f.Bin(ir.Sub, ir.Imm(7), ir.Imm(2))
	then, join := f.Block("then"), f.Block("join")
	f.Branch(x, ir.Gt, ir.Imm(0), join, then) // false edge falls through
	f.SetBlock(then)
	f.Load(ir.Access{Global: "buf", Pattern: ir.Rand})
	f.Jump(join)
	f.SetBlock(join)
	f.Return()
	g := mb.Function("g")
	g.Loop(4, func() { g.Load(ir.Access{Global: "buf", Pattern: ir.Seq}) }) // false edge jumps
	g.Return()
	main := mb.Function("main")
	main.Call("f")
	main.Call("g")
	main.Return()
	mb.SetEntry("main")
	m := mb.MustBuild()
	m.Func("f").Blocks[1].Instrs[0].(*ir.Load).NT = true

	p, err := Lower(m, Config{Virtualize: multiBlock})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	for _, fi := range p.Funcs {
		if want := textLen(m.Func(fi.Name)); fi.End-fi.Entry != want {
			t.Errorf("%s: lowered %d instructions, textLen counts %d", fi.Name, fi.End-fi.Entry, want)
		}
	}
	if cap(p.Code) != len(p.Code) {
		t.Errorf("Lower: text capacity %d for %d instructions", cap(p.Code), len(p.Code))
	}
	vr, err := LowerVariant(p, m, "f", 1, len(p.Code))
	if err != nil {
		t.Fatalf("LowerVariant: %v", err)
	}
	if cap(vr.Code) != len(vr.Code) {
		t.Errorf("LowerVariant: fragment capacity %d for %d instructions", cap(vr.Code), len(vr.Code))
	}
}
