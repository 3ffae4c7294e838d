package dataflow_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/ir/dataflow"
	"repro/internal/workload"
)

// factFingerprint renders every analysis result for a function keyed by
// block NAME (not index), so functions that differ only in block layout
// can be compared fact-for-fact.
func factFingerprint(f *ir.Function) string {
	var lines []string
	lv := dataflow.ComputeLiveness(f)
	for bi, b := range f.Blocks {
		var in, out []int
		for r := 0; r < lv.NumRegs; r++ {
			if lv.In[bi].Has(r) {
				in = append(in, r)
			}
			if lv.Out[bi].Has(r) {
				out = append(out, r)
			}
		}
		lines = append(lines, fmt.Sprintf("live %s in=%v out=%v", b.Name, in, out))
	}
	for _, d := range lv.DeadDefs() {
		lines = append(lines, fmt.Sprintf("dead %s #%d", f.Blocks[d.Block].Name, d.Instr))
	}
	for _, u := range dataflow.UseBeforeDef(f) {
		lines = append(lines, fmt.Sprintf("ubd %s #%d r%d", f.Blocks[u.Block].Name, u.Instr, u.Reg))
	}
	var invLoads []int
	for id := range dataflow.InvariantAddressLoads(f, ir.BuildLoopForest(f)) {
		invLoads = append(invLoads, id)
	}
	sort.Ints(invLoads)
	lines = append(lines, fmt.Sprintf("invloads %v", invLoads))
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestRepeatedRunsIdentical re-runs every analysis many times over real
// catalog modules: the facts must be bit-identical run to run.
func TestRepeatedRunsIdentical(t *testing.T) {
	for _, name := range []string{"blockie", "bst", "soplex"} {
		m := workload.MustByName(name).Module()
		for _, f := range m.Funcs {
			first := factFingerprint(f)
			for i := 1; i < 25; i++ {
				if got := factFingerprint(f); got != first {
					t.Fatalf("%s/%s: run %d differs:\n%s\n---\n%s", name, f.Name, i, got, first)
				}
			}
		}
	}
}

// TestBlockOrderIndependence solves the same program under permuted block
// layouts. Facts are keyed by block name, so every permutation must
// produce the same fingerprint: the worklist order may change, the
// fixpoint may not.
func TestBlockOrderIndependence(t *testing.T) {
	m := parse(t, `
module perm
entry main
global buf 1048576
func main {
  entry:
    r1 = const 16
    r9 = const 5
    jump %head
  head:
    r2 = load buf[seq stride=64]
    br r2 gt 0, %body, %exit
  body:
    r3 = add r2, r9
    r5 = mul r3, 3
    store r3, buf[seq stride=64]
    r1 = sub r1, 1
    br r1 gt 0, %head, %exit
  exit:
    r4 = add r2, 1
    store r4, buf[seq stride=64]
    ret
}
`)
	f := fn(t, m, "main")
	base := factFingerprint(f)

	// Permute every ordering of the non-entry blocks (entry stays first:
	// Blocks[0] is the function entry by definition).
	rest := f.Blocks[1:]
	perms := permutations(len(rest))
	if len(perms) != 6 {
		t.Fatalf("expected 3! = 6 permutations, got %d", len(perms))
	}
	orig := append([]*ir.Block(nil), rest...)
	for _, p := range perms {
		for i, j := range p {
			rest[i] = orig[j]
		}
		for i, b := range f.Blocks {
			b.Index = i
		}
		if got := factFingerprint(f); got != base {
			t.Errorf("permutation %v changed the facts:\n%s\n--- base ---\n%s", p, got, base)
		}
	}
}

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for i := 0; i <= len(sub); i++ {
			p := make([]int, 0, n)
			p = append(p, sub[:i]...)
			p = append(p, n-1)
			p = append(p, sub[i:]...)
			out = append(out, p)
		}
	}
	return out
}
