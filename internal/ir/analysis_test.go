package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// linearChain builds entry -> b1 -> b2 -> ... -> ret.
func linearChain(n int) *Function {
	f := &Function{Name: "chain"}
	for i := 0; i < n; i++ {
		f.Blocks = append(f.Blocks, &Block{Name: "b" + string(rune('a'+i)), Index: i})
	}
	for i := 0; i < n-1; i++ {
		f.Blocks[i].Term = &Jump{Target: f.Blocks[i+1]}
	}
	f.Blocks[n-1].Term = &Return{}
	return f
}

func TestCFGLinearChain(t *testing.T) {
	f := linearChain(5)
	c := BuildCFG(f)
	if len(c.RPO) != 5 {
		t.Fatalf("RPO length = %d, want 5", len(c.RPO))
	}
	for i, b := range c.RPO {
		if b != i {
			t.Errorf("RPO[%d] = %d, want %d", i, b, i)
		}
	}
	for i := 1; i < 5; i++ {
		if len(c.Preds[i]) != 1 || c.Preds[i][0] != i-1 {
			t.Errorf("Preds[%d] = %v", i, c.Preds[i])
		}
	}
}

func TestDomTreeLinearChain(t *testing.T) {
	f := linearChain(5)
	d := BuildDomTree(BuildCFG(f))
	if d.IDom[0] != -1 {
		t.Errorf("entry idom = %d, want -1", d.IDom[0])
	}
	for i := 1; i < 5; i++ {
		if d.IDom[i] != i-1 {
			t.Errorf("IDom[%d] = %d, want %d", i, d.IDom[i], i-1)
		}
	}
	for i := 0; i < 5; i++ {
		for j := i; j < 5; j++ {
			if !d.Dominates(i, j) {
				t.Errorf("block %d should dominate %d in a chain", i, j)
			}
		}
		for j := 0; j < i; j++ {
			if d.Dominates(i, j) {
				t.Errorf("block %d should not dominate %d", i, j)
			}
		}
	}
}

// diamondFn builds entry(0) -> {1,2} -> 3(ret).
func diamondFn() *Function {
	f := &Function{Name: "dia"}
	for i := 0; i < 4; i++ {
		f.Blocks = append(f.Blocks, &Block{Name: []string{"e", "l", "r", "j"}[i], Index: i})
	}
	f.Blocks[0].Term = &Branch{X: 0, Cmp: Lt, Y: Imm(1), True: f.Blocks[1], False: f.Blocks[2]}
	f.Blocks[1].Term = &Jump{Target: f.Blocks[3]}
	f.Blocks[2].Term = &Jump{Target: f.Blocks[3]}
	f.Blocks[3].Term = &Return{}
	return f
}

func TestDomTreeDiamond(t *testing.T) {
	d := BuildDomTree(BuildCFG(diamondFn()))
	if d.IDom[1] != 0 || d.IDom[2] != 0 {
		t.Errorf("branch arms should be dominated by entry: idoms %d %d", d.IDom[1], d.IDom[2])
	}
	if d.IDom[3] != 0 {
		t.Errorf("join idom = %d, want 0 (neither arm dominates it)", d.IDom[3])
	}
	if d.Dominates(1, 3) || d.Dominates(2, 3) {
		t.Error("an arm of the diamond must not dominate the join")
	}
}

func TestUnreachableBlocks(t *testing.T) {
	f := linearChain(3)
	// Add an unreachable block.
	dead := &Block{Name: "dead", Index: 3, Term: &Return{}}
	f.Blocks = append(f.Blocks, dead)
	c := BuildCFG(f)
	if c.Reachable(3) {
		t.Error("dead block reported reachable")
	}
	d := BuildDomTree(c)
	if d.IDom[3] != -1 {
		t.Errorf("dead block idom = %d, want -1", d.IDom[3])
	}
	if d.Dominates(0, 3) {
		t.Error("nothing dominates an unreachable block")
	}
	lf := BuildLoopForest(f)
	if lf.NumLoops() != 0 {
		t.Errorf("chain has %d loops, want 0", lf.NumLoops())
	}
}

// selfLoop builds a single block branching to itself.
func TestLoopSelf(t *testing.T) {
	f := &Function{Name: "self"}
	b0 := &Block{Name: "e", Index: 0}
	b1 := &Block{Name: "l", Index: 1}
	b2 := &Block{Name: "x", Index: 2}
	f.Blocks = []*Block{b0, b1, b2}
	b0.Term = &Jump{Target: b1}
	b1.Term = &Branch{X: 0, Cmp: Lt, Y: Imm(10), True: b1, False: b2}
	b2.Term = &Return{}
	lf := BuildLoopForest(f)
	if lf.NumLoops() != 1 {
		t.Fatalf("NumLoops = %d, want 1", lf.NumLoops())
	}
	if lf.Depth(1) != 1 {
		t.Errorf("self-loop block depth = %d, want 1", lf.Depth(1))
	}
	if lf.Depth(0) != 0 || lf.Depth(2) != 0 {
		t.Errorf("blocks outside loop have depths %d,%d, want 0,0", lf.Depth(0), lf.Depth(2))
	}
	if !lf.AtMaxDepth(1) || lf.AtMaxDepth(0) {
		t.Error("AtMaxDepth wrong for self loop")
	}
}

func TestLoopSharedHeaderMerges(t *testing.T) {
	// Two back edges into the same header must form one loop.
	//   0 -> 1(h) -> 2 -> 1, 1 -> 3 -> 1, exits to 4
	f := &Function{Name: "shared"}
	for i := 0; i < 5; i++ {
		f.Blocks = append(f.Blocks, &Block{Name: string(rune('a' + i)), Index: i})
	}
	f.Blocks[0].Term = &Jump{Target: f.Blocks[1]}
	f.Blocks[1].Term = &Branch{X: 0, Cmp: Lt, Y: Imm(1), True: f.Blocks[2], False: f.Blocks[3]}
	f.Blocks[2].Term = &Branch{X: 0, Cmp: Lt, Y: Imm(2), True: f.Blocks[1], False: f.Blocks[4]}
	f.Blocks[3].Term = &Jump{Target: f.Blocks[1]}
	f.Blocks[4].Term = &Return{}
	lf := BuildLoopForest(f)
	if lf.NumLoops() != 1 {
		t.Fatalf("NumLoops = %d, want 1 (shared header merges)", lf.NumLoops())
	}
	for _, b := range []int{1, 2, 3} {
		if lf.Depth(b) != 1 {
			t.Errorf("block %d depth = %d, want 1", b, lf.Depth(b))
		}
	}
}

// randomCFG builds a random function with n blocks where every block is
// given a terminator targeting random blocks. Used for property tests.
func randomCFG(rng *rand.Rand, n int) *Function {
	f := &Function{Name: "rand"}
	for i := 0; i < n; i++ {
		f.Blocks = append(f.Blocks, &Block{Name: "b" + string(rune('0'+i%10)) + string(rune('a'+i/10)), Index: i})
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			f.Blocks[i].Term = &Return{}
		case 1:
			f.Blocks[i].Term = &Jump{Target: f.Blocks[rng.Intn(n)]}
		default:
			f.Blocks[i].Term = &Branch{X: 0, Cmp: Lt, Y: Imm(1),
				True: f.Blocks[rng.Intn(n)], False: f.Blocks[rng.Intn(n)]}
		}
	}
	return f
}

// Property: for random CFGs, the entry dominates every reachable block, a
// block never dominates its own dominator (unless equal), and loop headers
// dominate every block in their loop body.
func TestDominatorPropertiesRandom(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		f := randomCFG(rng, n)
		c := BuildCFG(f)
		d := BuildDomTree(c)
		for b := 0; b < n; b++ {
			if !c.Reachable(b) {
				continue
			}
			if !d.Dominates(0, b) {
				return false
			}
			if b != 0 && d.IDom[b] >= 0 && d.Dominates(b, d.IDom[b]) && b != d.IDom[b] {
				return false
			}
		}
		lf := BuildLoopForest(f)
		var check func(l *Loop) bool
		check = func(l *Loop) bool {
			for _, b := range l.Blocks {
				if !d.Dominates(l.Header, b) {
					return false
				}
			}
			for _, ch := range l.Children {
				if ch.Depth != l.Depth+1 {
					return false
				}
				if !check(ch) {
					return false
				}
			}
			return true
		}
		for _, r := range lf.Roots {
			if r.Depth != 1 || !check(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: nested child loop bodies are subsets of their parents.
func TestLoopNestingSubsetRandom(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomCFG(rng, 2+rng.Intn(14))
		lf := BuildLoopForest(f)
		var check func(l *Loop) bool
		check = func(l *Loop) bool {
			body := make(map[int]bool, len(l.Blocks))
			for _, b := range l.Blocks {
				body[b] = true
			}
			for _, ch := range l.Children {
				for _, b := range ch.Blocks {
					if !body[b] {
						return false
					}
				}
				if !check(ch) {
					return false
				}
			}
			return true
		}
		for _, r := range lf.Roots {
			if !check(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
