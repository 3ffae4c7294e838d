package isa

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Config controls lowering.
type Config struct {
	// Virtualize decides whether call edges to callee are lowered through
	// the EVT. nil lowers every call directly (a plain, non-protean binary).
	Virtualize func(m *ir.Module, callee *ir.Function) bool
}

// page is the alignment of global placement, in bytes.
const page uint64 = 4096

// Lower compiles a finalized module to a Program.
func Lower(m *ir.Module, cfg Config) (*Program, error) {
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("isa: lower %q: %w", m.Name, err)
	}
	p := &Program{Name: m.Name, NumLoads: m.NumLoads}

	// Place globals page-aligned starting one page in (address 0 stays
	// unmapped, as on a real machine).
	addr := page
	globalInfo := make(map[string]GlobalInfo, len(m.Globals))
	for _, g := range m.Globals {
		gi := GlobalInfo{Name: g.Name, Base: addr, Size: uint64(g.Size)}
		p.Globals = append(p.Globals, gi)
		globalInfo[g.Name] = gi
		addr += (uint64(g.Size) + page - 1) / page * page
	}
	p.AddrSpace = addr

	// Decide the virtualized callee set and assign EVT slots (sorted for
	// determinism).
	virt := make(map[string]bool)
	if cfg.Virtualize != nil {
		for _, f := range m.Funcs {
			if cfg.Virtualize(m, f) {
				virt[f.Name] = true
			}
		}
	}
	var virtNames []string
	for name := range virt {
		virtNames = append(virtNames, name)
	}
	sort.Strings(virtNames)
	evtSlot := make(map[string]int, len(virtNames))
	for i, name := range virtNames {
		evtSlot[name] = i
		p.EVT = append(p.EVT, EVTEntry{Callee: name})
	}

	env := &lowerEnv{globals: globalInfo, evtSlot: evtSlot}

	// Lower each function, collecting call fixups resolved once all
	// entries are known.
	entries := make(map[string]int, len(m.Funcs))
	n := 0
	for _, f := range m.Funcs {
		n += textLen(f)
	}
	p.Code = make([]Inst, 0, n)
	for _, f := range m.Funcs {
		entry := len(p.Code)
		code, blocks, err := env.lowerFunc(m, f, entry, p.Code)
		if err != nil {
			return nil, err
		}
		p.Code = code
		p.Funcs = append(p.Funcs, FuncInfo{
			Name: f.Name, Entry: entry, End: len(p.Code), MaxReg: f.MaxReg,
			Blocks: blocks,
		})
		entries[f.Name] = entry
	}
	for _, fx := range env.callFixups {
		target, ok := entries[fx.callee]
		if !ok {
			return nil, fmt.Errorf("isa: lower %q: call to unlowered function %q", m.Name, fx.callee)
		}
		p.Code[fx.pc].Target = target
	}
	for i := range p.EVT {
		p.EVT[i].Target = entries[p.EVT[i].Callee]
	}
	// MemIDs are 1-based; slot 0 of the site-state array stays unused.
	p.NumSites = m.NumMemSites + 1
	p.EntryPC = entries[m.EntryFn]
	return p, nil
}

// VariantResult is the output of LowerVariant: a relocatable code fragment
// for one transformed function.
type VariantResult struct {
	// Code has branch targets already rebased to BasePC.
	Code []Inst
	// Info describes the fragment (Entry == BasePC).
	Info FuncInfo
	// NumSites is the module's total memory-site count. Variant memory
	// instructions carry the stable MemID sites of the IR they were lowered
	// from, so the fragment shares address-stream cursor state with the
	// original code — a re-dispatched variant resumes each stream where the
	// previous code version left off.
	NumSites int
}

// LowerVariant lowers a single function fn from module m (typically a
// transformed clone of the embedded IR) as a code-cache fragment for an
// existing program p.
//
// The fragment is linked against p's layout: globals resolve to p's
// placements, calls to virtualized callees go through p's existing EVT
// slots, and calls to non-virtualized functions target their original
// static entries. basePC is where the fragment will be placed (the machine's
// code cache cursor).
func LowerVariant(p *Program, m *ir.Module, fn string, variant, basePC int) (*VariantResult, error) {
	f := m.Func(fn)
	if f == nil {
		return nil, fmt.Errorf("isa: variant of %q: function not in module", fn)
	}
	globalInfo := make(map[string]GlobalInfo, len(p.Globals))
	for _, gi := range p.Globals {
		globalInfo[gi.Name] = gi
	}
	evtSlot := make(map[string]int, len(p.EVT))
	for i, e := range p.EVT {
		evtSlot[e.Callee] = i
	}
	env := &lowerEnv{globals: globalInfo, evtSlot: evtSlot}
	code, blocks, err := env.lowerFunc(m, f, basePC, make([]Inst, 0, textLen(f)))
	if err != nil {
		return nil, err
	}
	for _, fx := range env.callFixups {
		fi, ok := p.FuncByName(fx.callee)
		if !ok {
			return nil, fmt.Errorf("isa: variant of %q: call to unknown function %q", fn, fx.callee)
		}
		code[fx.pc-basePC].Target = fi.Entry
	}
	return &VariantResult{
		Code: code,
		Info: FuncInfo{
			Name: fn, Variant: variant,
			Entry: basePC, End: basePC + len(code), MaxReg: f.MaxReg,
			Blocks: blocks,
		},
		NumSites: m.NumMemSites + 1,
	}, nil
}

type callFixup struct {
	pc     int // absolute PC of the OpCall instruction
	callee string
}

type lowerEnv struct {
	globals    map[string]GlobalInfo
	evtSlot    map[string]int
	callFixups []callFixup
}

func (env *lowerEnv) gen(a ir.Access, memID int) (AddrGen, error) {
	gi, ok := env.globals[a.Global]
	if !ok {
		return AddrGen{}, fmt.Errorf("isa: access to unplaced global %q", a.Global)
	}
	stride := uint64(a.Stride)
	if stride == 0 {
		stride = 8
	}
	hot := uint64(a.HotBytes)
	if hot == 0 {
		hot = 4096
	}
	if hot > gi.Size {
		hot = gi.Size
	}
	return AddrGen{
		Base: gi.Base, Size: gi.Size,
		Pattern: a.Pattern, Stride: stride, HotBytes: hot,
		Site: memID,
	}, nil
}

// textLen is the number of instructions lowerFunc emits for f: one per IR
// instruction and terminator, plus the const that materializes an
// immediate ALU X, the prefetchnta before an NT load, and the jump after a
// branch whose false edge does not fall through. Callers size the text
// with it so it is written once; a wrong count costs capacity only.
func textLen(f *ir.Function) int {
	n := 0
	for bi, b := range f.Blocks {
		n += len(b.Instrs) + 1
		for _, in := range b.Instrs {
			if bo, ok := in.(*ir.BinOp); ok && !bo.X.IsReg {
				n++
			}
			if ld, ok := in.(*ir.Load); ok && ld.NT {
				n++
			}
		}
		if t, ok := b.Term.(*ir.Branch); ok && !fallsThrough(f, bi, t) {
			n++
		}
	}
	return n
}

// fallsThrough reports whether branch t ending block bi of f reaches its
// false target by falling into the next block in layout order.
func fallsThrough(f *ir.Function, bi int, t *ir.Branch) bool {
	return bi+1 < len(f.Blocks) && f.Blocks[bi+1] == t.False
}

// lowerFunc appends the function's code to code with all branch targets
// absolute, assuming the first appended instruction lands at basePC. It
// returns the grown slice and the per-block PC extents (absolute, in
// layout order) for sample attribution.
func (env *lowerEnv) lowerFunc(m *ir.Module, f *ir.Function, basePC int, code []Inst) ([]Inst, []BlockInfo, error) {
	start := len(code)
	blockPC := make([]int, len(f.Blocks)) // relative to start
	type branchFixup struct {
		pc    int // index into code
		block int // target block index
	}
	var fixups []branchFixup

	for bi, b := range f.Blocks {
		blockPC[bi] = len(code) - start
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case *ir.BinOp:
				mi := Inst{Op: OpALU, Dst: uint16(in.Dst), Bin: in.Op, LoadID: -1}
				// The ISA's ALU form is Dst = Xreg <op> Y; materialize an
				// immediate X through a const into the destination first.
				if in.X.IsReg {
					mi.X = uint16(in.X.Reg)
				} else {
					code = append(code, Inst{Op: OpConst, Dst: uint16(in.Dst), YImm: in.X.Imm, LoadID: -1})
					mi.X = uint16(in.Dst)
				}
				if in.Y.IsReg {
					mi.YIsReg = true
					mi.YReg = uint16(in.Y.Reg)
				} else {
					mi.YImm = in.Y.Imm
				}
				code = append(code, mi)
			case *ir.Const:
				code = append(code, Inst{Op: OpConst, Dst: uint16(in.Dst), YImm: in.Value, LoadID: -1})
			case *ir.Load:
				g, err := env.gen(in.Acc, in.MemID)
				if err != nil {
					return nil, nil, fmt.Errorf("function %q: %w", f.Name, err)
				}
				if in.NT {
					// A non-temporal hint lowers to prefetchnta followed by
					// the load, exactly as in Figure 2: one extra issue slot,
					// and the load's fill is tagged non-temporal.
					code = append(code, Inst{Op: OpPrefetch, Gen: g, NT: true, LoadID: -1})
				}
				code = append(code, Inst{
					Op: OpLoad, Dst: uint16(in.Dst), Gen: g, LoadID: in.ID, NT: in.NT,
				})
			case *ir.Store:
				g, err := env.gen(in.Acc, in.MemID)
				if err != nil {
					return nil, nil, fmt.Errorf("function %q: %w", f.Name, err)
				}
				mi := Inst{Op: OpStore, Gen: g, LoadID: -1}
				if in.Val.IsReg {
					mi.YIsReg = true
					mi.YReg = uint16(in.Val.Reg)
				} else {
					mi.YImm = in.Val.Imm
				}
				code = append(code, mi)
			case *ir.Prefetch:
				g, err := env.gen(in.Acc, in.MemID)
				if err != nil {
					return nil, nil, fmt.Errorf("function %q: %w", f.Name, err)
				}
				code = append(code, Inst{Op: OpPrefetch, Gen: g, NT: in.NT, Lead: in.Lead, LoadID: -1})
			case *ir.Call:
				if slot, ok := env.evtSlot[in.Callee]; ok {
					code = append(code, Inst{Op: OpCallEVT, EVTSlot: slot, LoadID: -1})
				} else {
					env.callFixups = append(env.callFixups, callFixup{pc: basePC + len(code) - start, callee: in.Callee})
					code = append(code, Inst{Op: OpCall, LoadID: -1})
				}
			default:
				return nil, nil, fmt.Errorf("isa: function %q: unknown instruction %T", f.Name, in)
			}
		}
		switch t := b.Term.(type) {
		case *ir.Jump:
			fixups = append(fixups, branchFixup{pc: len(code), block: t.Target.Index})
			code = append(code, Inst{Op: OpJmp, LoadID: -1})
		case *ir.Branch:
			mi := Inst{Op: OpBr, X: uint16(t.X), Cmp: t.Cmp, LoadID: -1}
			if t.Y.IsReg {
				mi.YIsReg = true
				mi.YReg = uint16(t.Y.Reg)
			} else {
				mi.YImm = t.Y.Imm
			}
			fixups = append(fixups, branchFixup{pc: len(code), block: t.True.Index})
			code = append(code, mi)
			// Fall through when the false target is the next block in
			// layout order; otherwise emit an explicit jump.
			if !fallsThrough(f, bi, t) {
				fixups = append(fixups, branchFixup{pc: len(code), block: t.False.Index})
				code = append(code, Inst{Op: OpJmp, LoadID: -1})
			}
		case *ir.Return:
			code = append(code, Inst{Op: OpRet, LoadID: -1})
		default:
			return nil, nil, fmt.Errorf("isa: function %q block %q: unknown terminator %T", f.Name, b.Name, t)
		}
	}
	for _, fx := range fixups {
		code[fx.pc].Target = basePC + blockPC[fx.block]
	}
	blocks := make([]BlockInfo, len(f.Blocks))
	for bi, b := range f.Blocks {
		end := len(code) - start
		if bi+1 < len(f.Blocks) {
			end = blockPC[bi+1]
		}
		blocks[bi] = BlockInfo{Name: b.Name, Entry: basePC + blockPC[bi], End: basePC + end}
	}
	return code, blocks, nil
}
