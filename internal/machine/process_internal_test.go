package machine

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/progbin"
)

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		op   ir.BinKind
		x, y int64
		want int64
	}{
		{ir.Add, 3, 4, 7},
		{ir.Sub, 3, 4, -1},
		{ir.Mul, 3, 4, 12},
		{ir.Div, 12, 4, 3},
		{ir.Div, 12, 0, 0}, // division by zero yields 0, never traps
		{ir.And, 0b1100, 0b1010, 0b1000},
		{ir.Or, 0b1100, 0b1010, 0b1110},
		{ir.Xor, 0b1100, 0b1010, 0b0110},
		{ir.Shl, 1, 4, 16},
		{ir.Shr, 16, 4, 1},
		{ir.Shr, -1, 1, int64(^uint64(0) >> 1)}, // logical shift
		{ir.Shl, 1, 64, 1},                      // shift amount masked to 6 bits
	}
	for _, tc := range cases {
		if got := alu(tc.op, tc.x, tc.y); got != tc.want {
			t.Errorf("alu(%v, %d, %d) = %d, want %d", tc.op, tc.x, tc.y, got, tc.want)
		}
	}
	if got := alu(ir.BinKind(99), 1, 2); got != 0 {
		t.Errorf("unknown op = %d, want 0", got)
	}
}

func TestCmpSemantics(t *testing.T) {
	cases := []struct {
		op   ir.CmpKind
		x, y int64
		want bool
	}{
		{ir.Eq, 3, 3, true}, {ir.Eq, 3, 4, false},
		{ir.Ne, 3, 4, true}, {ir.Ne, 3, 3, false},
		{ir.Lt, 3, 4, true}, {ir.Lt, 4, 4, false},
		{ir.Le, 4, 4, true}, {ir.Le, 5, 4, false},
		{ir.Gt, 5, 4, true}, {ir.Gt, 4, 4, false},
		{ir.Ge, 4, 4, true}, {ir.Ge, 3, 4, false},
	}
	for _, tc := range cases {
		if got := cmp(tc.op, tc.x, tc.y); got != tc.want {
			t.Errorf("cmp(%v, %d, %d) = %v, want %v", tc.op, tc.x, tc.y, got, tc.want)
		}
	}
	if cmp(ir.CmpKind(99), 1, 2) {
		t.Error("unknown comparison should be false")
	}
}

// Property: cmp pairs are complementary (Lt ↔ Ge, Le ↔ Gt, Eq ↔ Ne).
func TestCmpComplements(t *testing.T) {
	prop := func(x, y int64) bool {
		return cmp(ir.Lt, x, y) != cmp(ir.Ge, x, y) &&
			cmp(ir.Le, x, y) != cmp(ir.Gt, x, y) &&
			cmp(ir.Eq, x, y) != cmp(ir.Ne, x, y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitmix64(t *testing.T) {
	// Deterministic, non-trivially distributed.
	a, b := splitmix64(1), splitmix64(2)
	if a == b {
		t.Error("splitmix64 collides on adjacent inputs")
	}
	if splitmix64(1) != a {
		t.Error("splitmix64 not deterministic")
	}
	// Bit spread: the outputs of 0..999 should cover both halves of the
	// word in every byte position.
	var orAll, andAll uint64 = 0, ^uint64(0)
	for i := uint64(0); i < 1000; i++ {
		v := splitmix64(i)
		orAll |= v
		andAll &= v
	}
	if orAll != ^uint64(0) {
		t.Errorf("some bit never set: or=%x", orAll)
	}
	if andAll != 0 {
		t.Errorf("some bit always set: and=%x", andAll)
	}
}

// addrProc builds a process whose address streams can be inspected.
func addrProc(t *testing.T) *Process {
	t.Helper()
	mb := ir.NewModuleBuilder("addr")
	mb.Global("g", 1<<20)
	f := mb.Function("main")
	f.Return()
	mb.SetEntry("main")
	bin := compile(t, mb.MustBuild(), false)
	m := New(Config{Cores: 1})
	p, err := m.Attach(0, bin, ProcessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAddressPatterns(t *testing.T) {
	p := addrProc(t)
	p.sites = make([]siteState, 4)
	size := uint64(1 << 16)

	seq := isa.AddrGen{Base: 0x1000, Size: size, Pattern: ir.Seq, Stride: 64, Site: 0}
	a1 := p.address(&seq)
	a2 := p.address(&seq)
	if a2 != a1+64 {
		t.Errorf("Seq: %x then %x, want +64", a1, a2)
	}
	// Wrap-around.
	p.sites[0].cursor = size - 64
	aw := p.address(&seq)
	if aw != p.base+0x1000+size-64 {
		t.Errorf("Seq at end: %x", aw)
	}
	if p.sites[0].cursor != 0 {
		t.Errorf("Seq cursor did not wrap: %d", p.sites[0].cursor)
	}

	rnd := isa.AddrGen{Base: 0x1000, Size: size, Pattern: ir.Rand, Site: 1}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		a := p.address(&rnd)
		if a < p.base+0x1000 || a >= p.base+0x1000+size {
			t.Fatalf("Rand out of region: %x", a)
		}
		if a%8 != 0 {
			t.Fatalf("Rand not 8-aligned: %x", a)
		}
		seen[a] = true
	}
	if len(seen) < 50 {
		t.Errorf("Rand produced only %d distinct addresses in 100 draws", len(seen))
	}

	chase := isa.AddrGen{Base: 0x1000, Size: size, Pattern: ir.Chase, Site: 2}
	c1 := p.address(&chase)
	c2 := p.address(&chase)
	if c1 == c2 {
		t.Error("Chase did not advance")
	}
	// Chase is deterministic given cursor state.
	p.sites[2].cursor = 0
	d1 := p.address(&chase)
	p.sites[2].cursor = 0
	d2 := p.address(&chase)
	if d1 != d2 {
		t.Error("Chase not deterministic from equal state")
	}

	hot := isa.AddrGen{Base: 0x1000, Size: size, Pattern: ir.Hot, HotBytes: 4096, Site: 3}
	inHot := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		a := p.address(&hot) - p.base - 0x1000
		if a < 4096 {
			inHot++
		}
	}
	frac := float64(inHot) / draws
	if frac < 0.8 || frac > 0.95 {
		t.Errorf("Hot: %.2f of draws in hot set, want ~7/8", frac)
	}
}

func TestPinPattern(t *testing.T) {
	p := addrProc(t)
	p.sites = make([]siteState, 1)
	pin := isa.AddrGen{Base: 0x1000, Size: 1 << 16, Pattern: ir.Pin, Site: 0}
	want := p.base + 0x1000
	for i := 0; i < 10; i++ {
		if a := p.address(&pin); a != want {
			t.Fatalf("Pin draw %d: %x, want the region base %x every time", i, a, want)
		}
	}
	if p.sites[0].cursor != 0 {
		t.Errorf("Pin mutated cursor state: %d", p.sites[0].cursor)
	}
}

// TestAddressPeekWraps: a lead is taken modulo the region, whatever its
// size, so a negative one (which only a corrupt binary carries) cannot spin.
func TestAddressPeekWraps(t *testing.T) {
	p := addrProc(t)
	p.sites = make([]siteState, 1)
	g := isa.AddrGen{Base: 0x1000, Size: 1 << 16, Pattern: ir.Seq, Stride: 64, Site: 0}
	for _, tc := range []struct{ lead, want uint64 }{
		{128, 128},
		{1<<16 + 8, 8},
		{^uint64(7), 1<<16 - 8}, // a Lead of -8
	} {
		if got := p.addressPeek(&g, tc.lead) - p.base - g.Base; got != tc.want {
			t.Errorf("peek %#x ahead of cursor 0 = offset %d, want %d", tc.lead, got, tc.want)
		}
	}
}

func TestProcessAccessors(t *testing.T) {
	bin := compile(t, streamModule(t, "acc", 1<<16), true)
	m := New(Config{Cores: 2})
	p, err := m.Attach(1, bin, ProcessConfig{Restart: true, Label: "relabeled"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Core() != 1 {
		t.Errorf("Core = %d", p.Core())
	}
	if p.Name() != "relabeled" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Binary() != bin {
		t.Error("Binary mismatch")
	}
	m.RunQuanta(1)
	if pc := p.CurrentPC(); pc < 0 || pc >= len(p.code) {
		t.Errorf("CurrentPC = %d out of range", pc)
	}
	if m.Process(1) != p || m.Process(0) != nil {
		t.Error("Machine.Process lookup wrong")
	}
}

// TestInstallVariantGrowsRegisterFrames installs a variant that raises
// maxReg, and uses its widest register first thing, while the original
// callee is running. New frames must get the wider file; in particular
// the callee's narrower file must not go back to the pool when it
// returns, or the variant's next frame would index past its end.
func TestInstallVariantGrowsRegisterFrames(t *testing.T) {
	for _, eng := range []string{EngineInterp, EngineSuperblock} {
		t.Run(eng, func(t *testing.T) {
			bin := compile(t, streamModule(t, "app", 1<<16), true)
			m := New(Config{Cores: 1, Engine: eng})
			p, err := m.Attach(0, bin, ProcessConfig{Restart: true})
			if err != nil {
				t.Fatal(err)
			}
			m.RunQuanta(5)

			emb, err := bin.DecodeIR()
			if err != nil {
				t.Fatal(err)
			}
			hot := emb.Func("hot")
			wide := ir.Reg(p.maxReg + 63)
			hot.MaxReg = int(wide) + 1
			entry := hot.Blocks[0]
			entry.Instrs = append([]ir.Instr{&ir.Const{Dst: wide, Value: 1}}, entry.Instrs...)
			vr, err := isa.LowerVariant(bin.Program, emb, "hot", 1, p.CodeCursor())
			if err != nil {
				t.Fatal(err)
			}
			if err := p.InstallVariant(vr); err != nil {
				t.Fatal(err)
			}
			if p.maxReg != hot.MaxReg {
				t.Errorf("maxReg %d not grown to %d", p.maxReg, hot.MaxReg)
			}
			p.EVT().SetTarget(p.EVT().SlotFor("hot"), vr.Info.Entry)
			before := p.Counters()
			m.RunQuanta(50)
			if p.Counters().Sub(before).Insts == 0 {
				t.Error("no progress after installing the wider variant")
			}
		})
	}
}

// TestWarmQuantaAllocateNothing runs a short protean module as a restarting
// job beside a gated copy of it: once warm, neither a completion nor a
// granted request allocates, under either engine.
func TestWarmQuantaAllocateNothing(t *testing.T) {
	mb := ir.NewModuleBuilder("small")
	mb.Global("buf", 1<<14)
	hot := mb.Function("hot")
	hot.Loop(10, func() {
		hot.Load(ir.Access{Global: "buf", Pattern: ir.Seq, Stride: 64})
	})
	hot.Return()
	main := mb.Function("main")
	for range 4 {
		main.Call("hot")
	}
	main.Return()
	mb.SetEntry("main")
	bin := compile(t, mb.MustBuild(), true)
	for _, eng := range []string{EngineInterp, EngineSuperblock} {
		m := New(Config{Cores: 2, Engine: eng})
		job, err := m.Attach(0, bin, ProcessConfig{Restart: true})
		if err != nil {
			t.Fatal(err)
		}
		server, err := m.Attach(1, bin, ProcessConfig{Gated: true})
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			server.GrantWork(3)
			m.RunQuanta(4)
		}
		for range 5 {
			step() // 20 warm-up quanta
		}
		jobBefore, serverBefore := job.Counters(), server.Counters()
		if n := testing.AllocsPerRun(20, step); n != 0 {
			t.Errorf("%s: %v allocations per 4 warm quanta", eng, n)
		}
		if job.Counters().Sub(jobBefore).Completions == 0 || server.Counters().Sub(serverBefore).Completions == 0 {
			t.Errorf("%s: measured quanta completed no work", eng)
		}
	}
}

func TestExecutionTrace(t *testing.T) {
	bin := compile(t, streamModule(t, "traced", 1<<16), false)
	m := New(Config{Cores: 1})
	p, err := m.Attach(0, bin, ProcessConfig{Restart: true, TraceDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	m.RunQuanta(3)
	tr := p.Trace()
	if len(tr) != 64 {
		t.Fatalf("trace length = %d, want full ring of 64", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Cycle < tr[i-1].Cycle {
			t.Fatalf("trace not in cycle order at %d: %d < %d", i, tr[i].Cycle, tr[i-1].Cycle)
		}
	}
	for _, e := range tr {
		if e.PC < 0 || e.PC >= len(p.code) {
			t.Fatalf("traced PC %d out of range", e.PC)
		}
	}
	// Untracked process returns nil.
	m2 := New(Config{Cores: 1})
	p2, _ := m2.Attach(0, compile(t, streamModule(t, "x", 1<<16), false), ProcessConfig{Restart: true})
	m2.RunQuanta(1)
	if p2.Trace() != nil {
		t.Error("untraced process returned a trace")
	}
}

func TestTracePartialRing(t *testing.T) {
	mb := ir.NewModuleBuilder("short")
	mb.Global("g", 4096)
	f := mb.Function("main")
	f.Work(5)
	f.Return()
	mb.SetEntry("main")
	bin := compile(t, mb.MustBuild(), false)
	m := New(Config{Cores: 1})
	p, _ := m.Attach(0, bin, ProcessConfig{TraceDepth: 1024})
	m.RunQuanta(1)
	tr := p.Trace()
	// 5 work instrs + ret = 6 executed.
	if len(tr) != 6 {
		t.Fatalf("trace length = %d, want 6", len(tr))
	}
	if tr[0].PC != p.bin.Program.EntryPC {
		t.Errorf("first traced PC = %d, want entry %d", tr[0].PC, p.bin.Program.EntryPC)
	}
}

// TestDecodedRecordSizes pins the two per-instruction decode records: the
// engine allocates one of each per instruction at every Attach and every
// InstallVariant, so a field that grows either shows up in every
// workload's allocation volume.
func TestDecodedRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(sbOp{}); got != 64 {
		t.Errorf("sbOp is %d bytes, want one 64-byte host cache line", got)
	}
	if got := unsafe.Sizeof(sbRun{}); got != 36 {
		t.Errorf("sbRun is %d bytes, want 36", got)
	}
}

// decoded attaches bin to a fresh one-core machine under the superblock
// engine and returns the engine's decoded state.
func decoded(t *testing.T, bin *progbin.Binary, cfg ProcessConfig) *sbEngine {
	t.Helper()
	p, err := New(Config{Cores: 1, Engine: EngineSuperblock}).Attach(0, bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.eng.(*sbEngine)
}

// CheckLoopFold holds decode's jump fold to its contract on bin, a compiled
// program with counted loops (`header: br i<trip → body; jmp exit` /
// `body: …; jmp header`). The run at each loop body's first PC must fold
// through the back-edge jump and end at the header's br, with aggregates
// equal to the sum of the two unfolded runs; under a DBT overlay no run
// folds. It is exported for the external test package, which alone can
// build catalog binaries (package workload imports machine).
func CheckLoopFold(t *testing.T, bin *progbin.Binary) {
	t.Helper()
	e := decoded(t, bin, ProcessConfig{})
	// A zero-cost overlay adds nothing to any worst case, so its runs are
	// exactly the unfolded ones.
	flat := decoded(t, bin, ProcessConfig{DBT: &DBTConfig{}})
	for pc, r := range flat.runs {
		if r.jump {
			t.Fatalf("run at PC %d folds under a DBT overlay", pc)
		}
	}
	loops := 0
	for h, op := range e.ops {
		b := int(op.target)
		if op.kind != sbBr || b <= h || b >= len(e.ops) {
			continue
		}
		body, header := flat.runs[b], flat.runs[h]
		if body.term < 0 || e.ops[body.term].kind != sbJmp || int(e.ops[body.term].target) != h {
			continue
		}
		loops++
		if header.term != int32(h) {
			t.Errorf("loop header at PC %d: its run ends at PC %d, not at its own br", h, header.term)
		}
		want := sbRun{
			term:       body.term,
			fixed:      body.fixed + header.fixed,
			worst:      body.worst + header.worst,
			insts:      body.insts + header.insts,
			branches:   body.branches + header.branches,
			loads:      body.loads + header.loads,
			stores:     body.stores + header.stores,
			prefetches: body.prefetches + header.prefetches,
			plain:      body.plain && header.plain,
			jump:       true,
		}
		if got := e.runs[b]; got != want {
			t.Errorf("loop body at PC %d (header %d): run %+v, want the two runs summed %+v", b, h, got, want)
		}
	}
	if loops == 0 {
		t.Fatal("no counted loop in the image")
	}
}

// TestJumpChainsDoNotFold decodes a hand-built image holding the two jump
// shapes that must stay run boundaries — a jump to a jump (`jmp A; A: jmp
// B`) and a self-loop (`L: jmp L`) — and runs it under both engines in
// lockstep, at a quantum that lands boundaries all over the loop. A's run
// does fold, into B's store-carrying run: the mixed path's second segment.
func TestJumpChainsDoNotFold(t *testing.T) {
	code := []isa.Inst{
		{Op: isa.OpConst, Dst: 0, YImm: 0},
		{Op: isa.OpJmp, Target: 2}, // jmp A
		{Op: isa.OpJmp, Target: 3}, // A: jmp B
		{Op: isa.OpStore, Gen: isa.AddrGen{Size: 1 << 16, Pattern: ir.Seq, Stride: 64}}, // B
		{Op: isa.OpALU, Bin: ir.Add, Dst: 0, X: 0, YImm: 1},
		{Op: isa.OpBr, Cmp: ir.Lt, X: 0, YImm: 2000, Target: 3}, // loop to B
		{Op: isa.OpJmp, Target: 6},                              // L: jmp L
	}
	bin := &progbin.Binary{Program: &isa.Program{
		Name:     "jumps",
		Code:     code,
		Funcs:    []isa.FuncInfo{{Name: "main", End: len(code), MaxReg: 1}},
		NumSites: 1,
	}}
	e := decoded(t, bin, ProcessConfig{})
	for pc, r := range e.runs {
		if r.jump && e.ops[e.runs[e.ops[r.term].target].term].kind == sbJmp {
			t.Errorf("run at PC %d folds into a run that ends in a jump", pc)
		}
	}
	for pc, want := range []bool{false, false, true, false, false, false, false} {
		if r := e.runs[pc]; r.term < 0 || r.jump != want {
			t.Errorf("run at PC %d: term %d, jump %v; want a fused run, jump %v", pc, r.term, r.jump, want)
		}
	}

	var ps [2]*Process
	for i, eng := range []string{EngineInterp, EngineSuperblock} {
		p, err := New(Config{Cores: 1, Engine: eng, QuantumCycles: 777}).Attach(0, bin, ProcessConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	for q := 0; q < 12; q++ {
		for _, p := range ps {
			p.m.RunQuanta(1)
		}
		a, b := ps[0], ps[1]
		if a.ctr != b.ctr || a.pc != b.pc || a.m.hier.L1(0).Stats() != b.m.hier.L1(0).Stats() {
			t.Fatalf("quantum %d: interp %+v at PC %d, L1 %+v; superblock %+v at PC %d, L1 %+v",
				q, a.ctr, a.pc, a.m.hier.L1(0).Stats(), b.ctr, b.pc, b.m.hier.L1(0).Stats())
		}
	}
	if ps[1].pc != 6 {
		t.Errorf("after 12 quanta the PC is %d, want the self-loop at 6", ps[1].pc)
	}
}
