package isa

import (
	"errors"
	"fmt"

	"repro/internal/ir"
)

// ErrBadProgram is wrapped by all program-verification failures.
var ErrBadProgram = errors.New("isa: malformed program")

func progErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadProgram, fmt.Sprintf(format, args...))
}

// VerifyProgram checks a lowered program's structural invariants before it
// is packaged into a binary:
//
//   - the entry PC and every function range lie inside the code,
//   - function ranges cover the code exactly and do not overlap,
//   - every branch/jump target lands inside the enclosing function,
//   - every direct call targets a function entry,
//   - every EVT slot references a defined function and its entry,
//   - register indices stay below the enclosing function's MaxReg,
//   - memory sites are within [0, NumSites) and address generators have
//     sane geometry (a hot set is non-empty and inside its region),
//   - data regions do not overlap and fit the declared address space.
func VerifyProgram(p *Program) error {
	if len(p.Code) == 0 {
		return progErr("empty code")
	}
	if p.EntryPC < 0 || p.EntryPC >= len(p.Code) {
		return progErr("entry PC %d outside code [0,%d)", p.EntryPC, len(p.Code))
	}
	// Function coverage.
	entries := make(map[int]FuncInfo, len(p.Funcs))
	covered := 0
	for i, f := range p.Funcs {
		if f.Entry < 0 || f.End > len(p.Code) || f.Entry >= f.End {
			return progErr("function %q range [%d,%d) invalid", f.Name, f.Entry, f.End)
		}
		if i > 0 && f.Entry < p.Funcs[i-1].End {
			return progErr("function %q overlaps %q", f.Name, p.Funcs[i-1].Name)
		}
		entries[f.Entry] = f
		covered += f.End - f.Entry
	}
	if covered != len(p.Code) {
		return progErr("functions cover %d of %d code words", covered, len(p.Code))
	}
	for _, f := range p.Funcs {
		if err := verifyRange(p, f); err != nil {
			return err
		}
	}
	for i, e := range p.EVT {
		fi, ok := entries[e.Target]
		if !ok {
			return progErr("EVT slot %d targets %d, not a function entry", i, e.Target)
		}
		if fi.Name != e.Callee {
			return progErr("EVT slot %d names %q but targets %q", i, e.Callee, fi.Name)
		}
	}
	// Data layout.
	var prevEnd uint64
	for _, g := range p.Globals {
		if g.Size == 0 {
			return progErr("global %q has zero size", g.Name)
		}
		if g.Base < prevEnd {
			return progErr("global %q overlaps the previous region", g.Name)
		}
		prevEnd = g.Base + g.Size
	}
	if prevEnd > p.AddrSpace {
		return progErr("globals end at %#x beyond address space %#x", prevEnd, p.AddrSpace)
	}
	return nil
}

// VerifyFragment checks a relocatable variant fragment against the program
// it will be installed into: intra-fragment branch targets stay inside the
// fragment, calls resolve into the program or the fragment, EVT slots
// exist, and sites fall inside the shared site space.
func VerifyFragment(p *Program, vr *VariantResult) error {
	lo, hi := vr.Info.Entry, vr.Info.End
	if hi-lo != len(vr.Code) {
		return progErr("fragment extent [%d,%d) does not match %d code words", lo, hi, len(vr.Code))
	}
	for i := range vr.Code {
		in := &vr.Code[i]
		switch in.Op {
		case OpBr, OpJmp:
			if in.Target < lo || in.Target >= hi {
				return progErr("fragment pc %d: branch target %d escapes [%d,%d)", lo+i, in.Target, lo, hi)
			}
		case OpCall:
			inProgram := in.Target >= 0 && in.Target < len(p.Code)
			inFragment := in.Target >= lo && in.Target < hi
			if !inProgram && !inFragment {
				return progErr("fragment pc %d: call target %d unresolvable", lo+i, in.Target)
			}
		case OpCallEVT:
			if in.EVTSlot < 0 || in.EVTSlot >= len(p.EVT) {
				return progErr("fragment pc %d: EVT slot %d out of range", lo+i, in.EVTSlot)
			}
		case OpLoad, OpStore, OpPrefetch:
			if in.Gen.Site < 0 || in.Gen.Site >= vr.NumSites {
				return progErr("fragment pc %d: site %d outside [0,%d)", lo+i, in.Gen.Site, vr.NumSites)
			}
			if err := verifyGen(in.Gen, lo+i); err != nil {
				return err
			}
		}
		if int(in.Dst) >= vr.Info.MaxReg && writesReg(in.Op) {
			return progErr("fragment pc %d: register r%d >= MaxReg %d", lo+i, in.Dst, vr.Info.MaxReg)
		}
		if readsX(in.Op) && int(in.X) >= vr.Info.MaxReg {
			return progErr("fragment pc %d: register r%d >= MaxReg %d", lo+i, in.X, vr.Info.MaxReg)
		}
	}
	return nil
}

func verifyRange(p *Program, f FuncInfo) error {
	for pc := f.Entry; pc < f.End; pc++ {
		in := &p.Code[pc]
		switch in.Op {
		case OpBr, OpJmp:
			if in.Target < f.Entry || in.Target >= f.End {
				return progErr("%s pc %d: branch target %d escapes [%d,%d)", f.Name, pc, in.Target, f.Entry, f.End)
			}
		case OpCall:
			if _, ok := p.FuncAt(in.Target); !ok {
				return progErr("%s pc %d: call target %d not in any function", f.Name, pc, in.Target)
			}
		case OpCallEVT:
			if in.EVTSlot < 0 || in.EVTSlot >= len(p.EVT) {
				return progErr("%s pc %d: EVT slot %d out of range", f.Name, pc, in.EVTSlot)
			}
		case OpLoad, OpStore, OpPrefetch:
			if in.Gen.Site < 0 || in.Gen.Site >= p.NumSites {
				return progErr("%s pc %d: site %d outside [0,%d)", f.Name, pc, in.Gen.Site, p.NumSites)
			}
			if err := verifyGen(in.Gen, pc); err != nil {
				return err
			}
		}
		if writesReg(in.Op) && int(in.Dst) >= f.MaxReg {
			return progErr("%s pc %d: register r%d >= MaxReg %d", f.Name, pc, in.Dst, f.MaxReg)
		}
		if readsYReg(in) && int(in.YReg) >= f.MaxReg {
			return progErr("%s pc %d: register r%d >= MaxReg %d", f.Name, pc, in.YReg, f.MaxReg)
		}
		if readsX(in.Op) && int(in.X) >= f.MaxReg {
			return progErr("%s pc %d: register r%d >= MaxReg %d", f.Name, pc, in.X, f.MaxReg)
		}
	}
	return nil
}

func verifyGen(g AddrGen, pc int) error {
	if g.Size == 0 {
		return progErr("pc %d: address generator with zero region size", pc)
	}
	switch g.Pattern {
	case ir.Seq, ir.Rand, ir.Chase, ir.Hot, ir.Pin:
	default:
		return progErr("pc %d: unknown address pattern %d", pc, g.Pattern)
	}
	if g.Pattern == ir.Seq && g.Stride == 0 {
		return progErr("pc %d: sequential generator with zero stride", pc)
	}
	if g.Pattern == ir.Hot && (g.HotBytes == 0 || g.HotBytes > g.Size) {
		return progErr("pc %d: hot set of %d bytes outside (0,%d]", pc, g.HotBytes, g.Size)
	}
	return nil
}

func writesReg(op Op) bool {
	switch op {
	case OpALU, OpConst, OpLoad:
		return true
	}
	return false
}

func readsX(op Op) bool { return op == OpALU || op == OpBr }

func readsYReg(in *Inst) bool {
	return in.YIsReg && (in.Op == OpALU || in.Op == OpBr || in.Op == OpStore)
}
