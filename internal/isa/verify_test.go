package isa

import (
	"errors"
	"testing"

	"repro/internal/ir"
)

func verified(t *testing.T) *Program {
	t.Helper()
	p, err := Lower(testModule(t), Config{Virtualize: multiBlock})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if err := VerifyProgram(p); err != nil {
		t.Fatalf("VerifyProgram on fresh lowering: %v", err)
	}
	return p
}

func TestVerifyProgramAcceptsLowered(t *testing.T) {
	verified(t)
}

func TestVerifyProgramCatchesCorruption(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(p *Program)
	}{
		{"entry out of range", func(p *Program) { p.EntryPC = len(p.Code) + 5 }},
		{"branch escapes function", func(p *Program) {
			for pc := range p.Code {
				if p.Code[pc].Op == OpBr {
					p.Code[pc].Target = len(p.Code) - 1
					return
				}
			}
			t.Fatal("no branch found")
		}},
		{"call into mid-function", func(p *Program) {
			for pc := range p.Code {
				if p.Code[pc].Op == OpCall {
					p.Code[pc].Target = p.Funcs[0].Entry + 1<<20
					return
				}
			}
			t.Skip("no direct call in this lowering")
		}},
		{"EVT slot out of range", func(p *Program) {
			for pc := range p.Code {
				if p.Code[pc].Op == OpCallEVT {
					p.Code[pc].EVTSlot = 99
					return
				}
			}
			t.Fatal("no EVT call found")
		}},
		{"EVT target not an entry", func(p *Program) { p.EVT[0].Target++ }},
		{"site out of range", func(p *Program) {
			for pc := range p.Code {
				if p.Code[pc].Op == OpLoad {
					p.Code[pc].Gen.Site = p.NumSites + 3
					return
				}
			}
			t.Fatal("no load found")
		}},
		{"register beyond frame", func(p *Program) {
			for fi := range p.Funcs {
				f := &p.Funcs[fi]
				for pc := f.Entry; pc < f.End; pc++ {
					if p.Code[pc].Op == OpConst {
						p.Code[pc].Dst = uint16(f.MaxReg + 7)
						return
					}
				}
			}
			t.Fatal("no const found")
		}},
		{"ALU operand beyond frame", func(p *Program) {
			for pc := range p.Code {
				if p.Code[pc].Op == OpALU {
					p.Code[pc].X = 60000
					return
				}
			}
			t.Fatal("no ALU found")
		}},
		{"empty hot set", func(p *Program) {
			for pc := range p.Code {
				if p.Code[pc].Op == OpLoad {
					p.Code[pc].Gen.Pattern, p.Code[pc].Gen.HotBytes = ir.Hot, 0
					return
				}
			}
			t.Fatal("no load found")
		}},
		{"zero-size generator", func(p *Program) {
			for pc := range p.Code {
				if p.Code[pc].Op == OpLoad {
					p.Code[pc].Gen.Size = 0
					return
				}
			}
		}},
		{"overlapping globals", func(p *Program) {
			if len(p.Globals) < 2 {
				t.Skip("one global only")
			}
			p.Globals[1].Base = p.Globals[0].Base
		}},
		{"function overlap", func(p *Program) { p.Funcs[1].Entry-- }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			p := verified(t)
			m.mutate(p)
			err := VerifyProgram(p)
			if err == nil {
				t.Fatal("verification passed on corrupted program")
			}
			if !errors.Is(err, ErrBadProgram) {
				t.Errorf("error %v does not wrap ErrBadProgram", err)
			}
		})
	}
}

func TestVerifyFragment(t *testing.T) {
	p := verified(t)
	clone := testModule(t).Clone()
	for _, ld := range clone.Loads() {
		ld.NT = true
	}
	base := len(p.Code) + 64
	vr, err := LowerVariant(p, clone, "hot", 1, base)
	if err != nil {
		t.Fatalf("LowerVariant: %v", err)
	}
	if err := VerifyFragment(p, vr); err != nil {
		t.Fatalf("VerifyFragment on fresh variant: %v", err)
	}
	// Corrupt a branch.
	for i := range vr.Code {
		if vr.Code[i].Op == OpBr {
			vr.Code[i].Target = 0
			break
		}
	}
	if err := VerifyFragment(p, vr); err == nil {
		t.Fatal("fragment verification passed with escaping branch")
	}
}

func TestVerifyProgramEmpty(t *testing.T) {
	if err := VerifyProgram(&Program{}); err == nil {
		t.Fatal("empty program verified")
	}
}
