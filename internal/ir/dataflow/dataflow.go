// Package dataflow implements a deterministic iterative worklist fixpoint
// engine over ir.BuildCFG, plus the concrete analyses the toolchain builds
// on it: liveness, dead stores, use-before-def and loop-invariant address
// loads.
//
// The engine is the classic round-robin worklist algorithm specialized for
// reproducibility: blocks are always processed in reverse postorder (or its
// reverse, for backward problems), pending work is tracked in a bitset
// rather than a queue, and facts live in fixed-width bit vectors. Nothing
// depends on map iteration order or allocation addresses, so the computed
// facts are bit-identical run to run — the same contract the rest of the
// simulator holds itself to (fleet runs are byte-identical at any worker
// count), extended to static analysis.
//
// Results for blocks unreachable from the entry are left at the
// initialization value (top for intersection problems, empty for union
// problems); callers that care should consult ir.CFG.Reachable.
package dataflow

import (
	"math/bits"

	"repro/internal/ir"
)

// Direction selects forward (facts flow entry→exit) or backward analysis.
type Direction int

// Analysis directions.
const (
	Forward Direction = iota
	Backward
)

// MeetOp combines facts where control-flow paths join.
type MeetOp int

// Meet operators: Union for may-analyses, Intersect for must-analyses.
const (
	Union MeetOp = iota
	Intersect
)

// BitSet is a fixed-capacity bit vector over facts [0, n).
type BitSet struct {
	n     int
	words []uint64
}

// NewBitSet returns an empty bitset with capacity for n facts.
func NewBitSet(n int) BitSet {
	return BitSet{n: n, words: make([]uint64, (n+63)/64)}
}

// Has reports whether fact i is set.
func (s BitSet) Has(i int) bool { return s.words[i/64]&(1<<(uint(i)%64)) != 0 }

// Set adds fact i.
func (s BitSet) Set(i int) { s.words[i/64] |= 1 << (uint(i) % 64) }

// Clear removes fact i.
func (s BitSet) Clear(i int) { s.words[i/64] &^= 1 << (uint(i) % 64) }

// Fill sets all n facts (top for intersection problems).
func (s BitSet) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits past n in the last word.
func (s BitSet) trim() {
	if rem := uint(s.n) % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// CopyFrom overwrites s with o. The sets must have equal capacity.
func (s BitSet) CopyFrom(o BitSet) { copy(s.words, o.words) }

// Equal reports whether s and o hold the same facts.
func (s BitSet) Equal(o BitSet) bool {
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// UnionWith adds every fact in o to s.
func (s BitSet) UnionWith(o BitSet) {
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes facts not in o from s.
func (s BitSet) IntersectWith(o BitSet) {
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// AndNotWith removes every fact in o from s.
func (s BitSet) AndNotWith(o BitSet) {
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Count returns the number of set facts.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Problem is one dataflow problem instance over a function's CFG.
//
// The Transfer function maps a block's input facts to its output facts:
// for Forward problems the input is the block-entry set and the output the
// block-exit set; for Backward problems the input is the block-exit set and
// the output the block-entry set. Transfer must be a pure function of
// (block, in) — it is re-invoked until fixpoint — and must write its result
// into out (which arrives holding the previous value).
type Problem struct {
	CFG      *ir.CFG
	Dir      Direction
	Meet     MeetOp
	NumFacts int
	// Boundary seeds the entry block's input (Forward) or every
	// exit block's input (Backward). A zero BitSet means the empty set.
	Boundary BitSet
	// Transfer computes out from in for one block.
	Transfer func(block int, in, out BitSet)
}

// Result holds the fixpoint facts, indexed by block. In is always the
// block-entry set and Out the block-exit set, regardless of direction.
type Result struct {
	In, Out []BitSet
}

// Solve runs the problem to fixpoint. Blocks are processed in reverse
// postorder (Forward) or reverse reverse-postorder (Backward), with a
// pending-set worklist, so iteration order — and therefore the exact
// fixpoint trajectory — is deterministic.
func Solve(p Problem) Result {
	n := len(p.CFG.Fn.Blocks)
	res := Result{In: make([]BitSet, n), Out: make([]BitSet, n)}
	for i := 0; i < n; i++ {
		res.In[i] = NewBitSet(p.NumFacts)
		res.Out[i] = NewBitSet(p.NumFacts)
		if p.Meet == Intersect {
			res.In[i].Fill()
			res.Out[i].Fill()
		}
	}
	if n == 0 {
		return res
	}

	boundary := p.Boundary
	if boundary.n == 0 && p.NumFacts > 0 {
		boundary = NewBitSet(p.NumFacts)
	} else if p.NumFacts == 0 {
		boundary = NewBitSet(0)
	}

	// order: the per-sweep visit sequence; input/output/edges: the
	// direction-agnostic view of the dataflow graph.
	order := p.CFG.RPO
	input, output := res.In, res.Out
	edgesIn, edgesOut := p.CFG.Preds, p.CFG.Succs
	if p.Dir == Backward {
		order = make([]int, len(p.CFG.RPO))
		for i, b := range p.CFG.RPO {
			order[len(p.CFG.RPO)-1-i] = b
		}
		input, output = res.Out, res.In
		edgesIn, edgesOut = p.CFG.Succs, p.CFG.Preds
	}

	pending := NewBitSet(n)
	for _, b := range order {
		pending.Set(b)
	}
	scratch := NewBitSet(p.NumFacts)
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if !pending.Has(b) {
				continue
			}
			pending.Clear(b)
			// Meet the inputs. Boundary blocks (the entry for forward
			// problems; that every exit block has no successors makes the
			// backward case fall out of the edge loop) fold the boundary
			// value into the meet, so an entry block that is also a loop
			// header still sees the function-entry facts.
			seeded := false
			if p.Dir == Forward && b == 0 {
				input[b].CopyFrom(boundary)
				seeded = true
			}
			for _, u := range edgesIn[b] {
				if !seeded {
					input[b].CopyFrom(output[u])
					seeded = true
					continue
				}
				if p.Meet == Union {
					input[b].UnionWith(output[u])
				} else {
					input[b].IntersectWith(output[u])
				}
			}
			if !seeded {
				input[b].CopyFrom(boundary)
			}
			scratch.CopyFrom(output[b])
			p.Transfer(b, input[b], output[b])
			if !scratch.Equal(output[b]) {
				changed = true
				for _, d := range edgesOut[b] {
					pending.Set(d)
				}
			}
		}
	}
	return res
}

// GenKill returns a Transfer implementing the classic form
// out = gen[b] ∪ (in − kill[b]). gen and kill are indexed by block.
func GenKill(gen, kill []BitSet) func(block int, in, out BitSet) {
	return func(b int, in, out BitSet) {
		out.CopyFrom(in)
		out.AndNotWith(kill[b])
		out.UnionWith(gen[b])
	}
}
