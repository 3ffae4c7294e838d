package dataflow

import (
	"repro/internal/ir"
)

// instrReads visits the registers an instruction reads, in operand order.
func instrReads(in ir.Instr, fn func(ir.Reg)) {
	op := func(o ir.Operand) {
		if o.IsReg {
			fn(o.Reg)
		}
	}
	switch in := in.(type) {
	case *ir.BinOp:
		op(in.X)
		op(in.Y)
	case *ir.Store:
		op(in.Val)
	}
}

// instrDef returns the register an instruction writes, or (0, false).
func instrDef(in ir.Instr) (ir.Reg, bool) {
	switch in := in.(type) {
	case *ir.BinOp:
		return in.Dst, true
	case *ir.Const:
		return in.Dst, true
	case *ir.Load:
		return in.Dst, true
	}
	return 0, false
}

// termReads visits the registers a terminator reads.
func termReads(t ir.Terminator, fn func(ir.Reg)) {
	if br, ok := t.(*ir.Branch); ok {
		fn(br.X)
		if br.Y.IsReg {
			fn(br.Y.Reg)
		}
	}
}

// Liveness holds per-block register liveness for one function. Facts are
// register numbers in [0, NumRegs).
type Liveness struct {
	Fn      *ir.Function
	CFG     *ir.CFG
	NumRegs int
	// In[b] is the set of registers live at entry to block b; Out[b] at
	// exit (before the terminator's own reads have been consumed — the
	// terminator's reads are included in Out via the use sets).
	In, Out []BitSet
}

// numRegs computes one past the highest register mentioned, without
// relying on Finalize's MaxReg (the function may be mid-transform).
func numRegs(f *ir.Function) int {
	max := 0
	note := func(r ir.Reg) {
		if int(r)+1 > max {
			max = int(r) + 1
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			instrReads(in, note)
			if d, ok := instrDef(in); ok {
				note(d)
			}
		}
		termReads(b.Term, note)
	}
	return max
}

// ComputeLiveness runs classic backward may-liveness over the function.
// Block indices must be current (as after Module.Finalize or a manual
// reindex).
func ComputeLiveness(f *ir.Function) *Liveness {
	cfg := ir.BuildCFG(f)
	nr := numRegs(f)
	n := len(f.Blocks)

	// use[b]: registers read before any write in b (terminator included);
	// def[b]: registers written in b.
	use := make([]BitSet, n)
	def := make([]BitSet, n)
	for i, b := range f.Blocks {
		u, d := NewBitSet(nr), NewBitSet(nr)
		upRead := func(r ir.Reg) {
			if !d.Has(int(r)) {
				u.Set(int(r))
			}
		}
		for _, in := range b.Instrs {
			instrReads(in, upRead)
			if dst, ok := instrDef(in); ok {
				d.Set(int(dst))
			}
		}
		termReads(b.Term, upRead)
		use[i], def[i] = u, d
	}

	res := Solve(Problem{
		CFG:      cfg,
		Dir:      Backward,
		Meet:     Union,
		NumFacts: nr,
		Transfer: func(b int, in, out BitSet) {
			// Backward: in = live-out of b, out = live-in of b.
			out.CopyFrom(in)
			out.AndNotWith(def[b])
			out.UnionWith(use[b])
		},
	})
	return &Liveness{Fn: f, CFG: cfg, NumRegs: nr, In: res.In, Out: res.Out}
}

// InstrRef names one instruction by block and instruction index.
type InstrRef struct {
	Block, Instr int
}

// DeadDefs returns the pure definitions (Const, BinOp) whose destination
// register is dead immediately after the definition — cross-block dead
// stores. Within a block the scan cascades: a definition feeding only
// dead definitions is itself dead. Results are ordered by block then
// instruction index.
func (lv *Liveness) DeadDefs() []InstrRef {
	var out []InstrRef
	live := NewBitSet(lv.NumRegs)
	for bi, b := range lv.Fn.Blocks {
		if !lv.CFG.Reachable(bi) {
			continue
		}
		live.CopyFrom(lv.Out[bi])
		termReads(b.Term, func(r ir.Reg) { live.Set(int(r)) })
		deadHere := make([]int, 0, 4)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if dst, ok := instrDef(in); ok {
				pure := false
				switch in.(type) {
				case *ir.Const, *ir.BinOp:
					pure = true
				}
				if pure && !live.Has(int(dst)) {
					// Dead: contributes no defs or uses downstream.
					deadHere = append(deadHere, i)
					continue
				}
				live.Clear(int(dst))
			}
			instrReads(in, func(r ir.Reg) { live.Set(int(r)) })
		}
		for i := len(deadHere) - 1; i >= 0; i-- {
			out = append(out, InstrRef{Block: bi, Instr: deadHere[i]})
		}
	}
	return out
}

// UninitUse is a register read not preceded by a definition on every path
// from the function entry.
type UninitUse struct {
	Block, Instr int
	Reg          ir.Reg
	// Term marks a terminator read; Instr is then len(Block.Instrs).
	Term bool
}

// UseBeforeDef returns the register reads in reachable blocks that are not
// dominated by an assignment — reads that may observe the register's
// initial value on some path. The analysis is definitely-assigned: forward,
// intersection meet, empty boundary. Results are ordered by block then
// instruction index.
func UseBeforeDef(f *ir.Function) []UninitUse {
	cfg := ir.BuildCFG(f)
	nr := numRegs(f)
	n := len(f.Blocks)

	gen := make([]BitSet, n)
	for i, b := range f.Blocks {
		g := NewBitSet(nr)
		for _, in := range b.Instrs {
			if dst, ok := instrDef(in); ok {
				g.Set(int(dst))
			}
		}
		gen[i] = g
	}
	kill := make([]BitSet, n)
	for i := range kill {
		kill[i] = NewBitSet(nr)
	}

	res := Solve(Problem{
		CFG:      cfg,
		Dir:      Forward,
		Meet:     Intersect,
		NumFacts: nr,
		Transfer: GenKill(gen, kill),
	})

	var out []UninitUse
	assigned := NewBitSet(nr)
	for bi, b := range f.Blocks {
		if !cfg.Reachable(bi) {
			continue
		}
		assigned.CopyFrom(res.In[bi])
		for ii, in := range b.Instrs {
			instrReads(in, func(r ir.Reg) {
				if !assigned.Has(int(r)) {
					out = append(out, UninitUse{Block: bi, Instr: ii, Reg: r})
				}
			})
			if dst, ok := instrDef(in); ok {
				assigned.Set(int(dst))
			}
		}
		termReads(b.Term, func(r ir.Reg) {
			if !assigned.Has(int(r)) {
				out = append(out, UninitUse{Block: bi, Instr: len(b.Instrs), Reg: r, Term: true})
			}
		})
	}
	return out
}

// InvariantAddressLoads returns the load IDs of loads that sit inside a
// loop and whose address stream is loop-invariant (a pinned access
// pattern). Such loads touch the same cache line every iteration: after
// the first touch the line is resident, so they are useless prefetch
// candidates and actively bad non-temporal candidates. PC3D prunes them
// from the search space. Finalize must have assigned load IDs.
func InvariantAddressLoads(f *ir.Function, lf *ir.LoopForest) map[int]bool {
	out := make(map[int]bool)
	for bi, b := range f.Blocks {
		if lf.Depth(bi) == 0 {
			continue
		}
		for _, in := range b.Instrs {
			if ld, ok := in.(*ir.Load); ok && ld.Acc.Invariant() {
				out[ld.ID] = true
			}
		}
	}
	return out
}
