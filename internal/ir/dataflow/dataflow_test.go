package dataflow_test

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/ir/dataflow"
	"repro/internal/ir/irtext"
)

// parse builds a finalized module from textual IR; test fixtures read much
// better as programs than as block-constructor soup.
func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func fn(t *testing.T, m *ir.Module, name string) *ir.Function {
	t.Helper()
	f := m.Func(name)
	if f == nil {
		t.Fatalf("no func %q", name)
	}
	return f
}

// diamond is a CFG with a split and a join: r1 feeds the branch, r2 is
// defined on both arms, r3 only on one.
const diamond = `
module diamond
entry main
global buf 4096
func main {
  entry:
    r1 = const 3
    br r1 gt 0, %then, %else
  then:
    r2 = const 7
    r3 = const 9
    jump %join
  else:
    r2 = const 8
    jump %join
  join:
    r4 = add r2, 1
    store r4, buf[seq stride=64]
    ret
}
`

func TestLivenessDiamond(t *testing.T) {
	m := parse(t, diamond)
	f := fn(t, m, "main")
	lv := dataflow.ComputeLiveness(f)

	idx := blockIndex(f)
	// r2 (reg 2) is live into the join and therefore out of both arms.
	for _, b := range []string{"then", "else"} {
		if !lv.Out[idx[b]].Has(2) {
			t.Errorf("r2 not live out of %%%s", b)
		}
	}
	if !lv.In[idx["join"]].Has(2) {
		t.Error("r2 not live into %join")
	}
	// r3 (reg 3) is never read: live nowhere.
	for bi := range f.Blocks {
		if lv.In[bi].Has(3) || lv.Out[bi].Has(3) {
			t.Errorf("r3 live around block %d", bi)
		}
	}
	// Nothing is live into the entry.
	if got := lv.In[idx["entry"]].Count(); got != 0 {
		t.Errorf("entry live-in count = %d, want 0", got)
	}
}

func TestDeadDefsCascade(t *testing.T) {
	m := parse(t, `
module chain
entry main
global buf 4096
func main {
  entry:
    r1 = load buf[seq stride=64]
    r2 = add r1, 5
    r3 = mul r2, 2
    r4 = add r3, 3
    store r1, buf[seq stride=64]
    ret
}
`)
	f := fn(t, m, "main")
	dead := dataflow.ComputeLiveness(f).DeadDefs()
	// r4 is dead, so r3 feeds only a dead def, so r2 does too. The load
	// (r1) is not pure and must survive.
	want := []dataflow.InstrRef{{Block: 0, Instr: 1}, {Block: 0, Instr: 2}, {Block: 0, Instr: 3}}
	if fmt.Sprint(dead) != fmt.Sprint(want) {
		t.Fatalf("DeadDefs = %v, want %v", dead, want)
	}
}

func TestUseBeforeDef(t *testing.T) {
	m := parse(t, `
module ubd
entry main
global buf 4096
func main {
  entry:
    r1 = const 1
    br r1 gt 0, %then, %join
  then:
    r2 = const 7
    jump %join
  join:
    r3 = add r2, r1
    store r3, buf[seq stride=64]
    ret
}
`)
	f := fn(t, m, "main")
	uses := dataflow.UseBeforeDef(f)
	idx := blockIndex(f)
	want := []dataflow.UninitUse{{Block: idx["join"], Instr: 0, Reg: 2}}
	if fmt.Sprint(uses) != fmt.Sprint(want) {
		t.Fatalf("UseBeforeDef = %v, want %v (r1 dominates, only r2 is path-dependent)", uses, want)
	}

	// The diamond assigns r2 on both arms: definitely-assigned, no findings.
	if got := dataflow.UseBeforeDef(fn(t, parse(t, diamond), "main")); len(got) != 0 {
		t.Fatalf("diamond UseBeforeDef = %v, want none", got)
	}
}

func TestInvariantAddressLoads(t *testing.T) {
	m := parse(t, `
module pins
entry main
global buf 1048576
func main {
  entry:
    r0 = load buf[pin]
    r1 = const 8
    jump %loop
  loop:
    r2 = load buf[pin]
    r3 = load buf[seq stride=64]
    r4 = add r2, r3
    r1 = sub r1, 1
    store r4, buf[seq stride=64]
    br r1 gt 0, %loop, %done
  done:
    store r0, buf[seq stride=64]
    ret
}
`)
	f := fn(t, m, "main")
	lf := ir.BuildLoopForest(f)
	inv := dataflow.InvariantAddressLoads(f, lf)

	// Collect load IDs by block for the assertion.
	var pinInLoop, seqInLoop, pinOutside int
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			ld, ok := in.(*ir.Load)
			if !ok {
				continue
			}
			switch {
			case ld.Acc.Pattern == ir.Pin && b.Name == "loop":
				pinInLoop = ld.ID
			case ld.Acc.Pattern == ir.Pin:
				pinOutside = ld.ID
			case b.Name == "loop":
				seqInLoop = ld.ID
			}
		}
	}
	if !inv[pinInLoop] {
		t.Error("pin load inside loop not reported invariant")
	}
	if inv[seqInLoop] {
		t.Error("seq load inside loop reported invariant")
	}
	if inv[pinOutside] {
		t.Error("pin load outside any loop reported invariant (depth 0 has no iterations)")
	}
}

// TestGenKillEngine exercises Solve directly with a tiny forward gen/kill
// problem over a two-block CFG, independent of any concrete analysis.
func TestGenKillEngine(t *testing.T) {
	m := parse(t, `
module tiny
entry main
global buf 4096
func main {
  a:
    r1 = const 1
    jump %b
  b:
    r1 = add r1, 1
    store r1, buf[seq stride=64]
    ret
}
`)
	f := fn(t, m, "main")
	cfg := ir.BuildCFG(f)
	// Fact 0: "block a's def of r1 is current"; fact 1: "block b's".
	gen := []dataflow.BitSet{dataflow.NewBitSet(2), dataflow.NewBitSet(2)}
	kill := []dataflow.BitSet{dataflow.NewBitSet(2), dataflow.NewBitSet(2)}
	gen[0].Set(0)
	kill[0].Set(1)
	gen[1].Set(1)
	kill[1].Set(0)
	res := dataflow.Solve(dataflow.Problem{
		CFG: cfg, Dir: dataflow.Forward, Meet: dataflow.Union,
		NumFacts: 2, Boundary: dataflow.NewBitSet(2),
		Transfer: dataflow.GenKill(gen, kill),
	})
	if !res.In[1].Has(0) || res.In[1].Has(1) {
		t.Errorf("In[b] = %v/%v, want fact 0 only", res.In[1].Has(0), res.In[1].Has(1))
	}
	if !res.Out[1].Has(1) || res.Out[1].Has(0) {
		t.Errorf("Out[b] wrong: has0=%v has1=%v, want fact 1 only", res.Out[1].Has(0), res.Out[1].Has(1))
	}
	if !res.Out[0].Has(0) {
		t.Error("Out[a] missing its own gen")
	}
}

func blockIndex(f *ir.Function) map[string]int {
	idx := make(map[string]int)
	for i, b := range f.Blocks {
		idx[b.Name] = i
	}
	return idx
}
