package harness

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/pc3d"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// Table1 reproduces Table I: the capability comparison between protean
// code and prior dynamic compilation infrastructures. The rows are the
// paper's published characterization; this build demonstrates the protean
// column's properties directly (Figures 4–7 for overhead, the embedded-IR
// pipeline for transformation power, the co-phase machinery for
// extrospection).
func (r *Runner) Table1() *Table {
	t := &Table{
		ID:      "Table I",
		Title:   "Comparison between protean code and prior dynamic compilation infrastructures",
		Columns: []string{"Capability", "ADAPT", "ADORE", "DynamoRIO", "Mojo", "protean code"},
	}
	yes, no := "yes", "-"
	t.AddRow("Low Overhead", no, yes, no, no, yes)
	t.AddRow("Full Intermediate Representation", yes, no, no, no, yes)
	t.AddRow("Commodity Hardware", yes, yes, yes, no, yes)
	t.AddRow("Programmer Unneeded", no, yes, yes, yes, yes)
	t.AddRow("Extrospective", no, no, no, no, yes)
	t.Notes = append(t.Notes, "rows restate the paper's Table I; the protean column is demonstrated by Figures 4-7")
	return t
}

// Table2 reproduces Table II: the application roster.
func (r *Runner) Table2() *Table {
	t := &Table{
		ID:      "Table II",
		Title:   "Applications used in datacenter experiments",
		Columns: []string{"App", "Suite", "Role", "Behaviour"},
	}
	for _, s := range workload.Catalog() {
		role := "host (batch)"
		if s.Class == workload.LatencySensitive {
			role = "external (latency-sensitive)"
		}
		t.AddRow(s.Name, s.Suite, role, s.Description)
	}
	return t
}

// Figure2 reproduces Figure 2: the four variants of a small two-load code
// region of libquantum, showing how non-temporal hints lower to a
// prefetchnta preceding the affected load.
func (r *Runner) Figure2() (*Table, error) {
	mb := ir.NewModuleBuilder("libquantum-region")
	mb.Global("state", 4<<20)
	fb := mb.Function("gate")
	fb.Loop(4, func() {
		fb.Load(ir.Access{Global: "state", Pattern: ir.Seq, Stride: 16}) // m1
		fb.Work(2)
		fb.Load(ir.Access{Global: "state", Pattern: ir.Seq, Stride: 16}) // m2
	})
	fb.Return()
	main := mb.Function("main")
	main.Call("gate")
	main.Return()
	mb.SetEntry("main")
	mod, err := mb.Build()
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "Figure 2",
		Title:   "The set of variants for a small code region (N=2) within libquantum",
		Columns: []string{"<m1,m2>", "generated code for the loop body"},
	}
	for _, bits := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		clone := mod.Clone()
		loads := clone.Loads()
		loads[0].NT = bits[0]
		loads[1].NT = bits[1]
		if err := clone.Finalize(); err != nil {
			return nil, err
		}
		prog, err := isa.Lower(clone, isa.Config{})
		if err != nil {
			return nil, err
		}
		fi, _ := prog.FuncByName("gate")
		body := ""
		for pc := fi.Entry; pc < fi.End; pc++ {
			in := prog.Code[pc]
			if in.Op == isa.OpLoad || in.Op == isa.OpPrefetch {
				if body != "" {
					body += " ; "
				}
				body += in.String()
			}
		}
		t.AddRow(fmt.Sprintf("<%d,%d>", b2i(bits[0]), b2i(bits[1])), body)
	}
	t.Notes = append(t.Notes, "each hinted load lowers to prefetchnta + NT-tagged load, exactly one extra issue slot")
	return t, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Figure8 reproduces Figure 8: how the search-space reduction heuristics
// shrink the static loads PC3D must consider, per batch host. The profile
// comes from actually sampling each program, not from the config.
func (r *Runner) Figure8() (*Table, error) {
	t := &Table{
		ID:      "Figure 8",
		Title:   "Search-space reduction heuristics (static loads; counts in parentheses in the paper)",
		Columns: []string{"App", "Full Program", "Active Regions", "Max Depth", "Active %", "MaxDepth %", "Invariant-pruned", "Block-ranked"},
	}
	var totalFull, totalActive, totalMax, totalInv int
	hosts := workload.BatchHosts()
	spaces := make([]pc3d.SearchSpace, len(hosts))
	profs := make([]*sampling.DeepProfile, len(hosts))
	siteBlock := make([]map[int]string, len(hosts))
	err := r.forEach(len(hosts), func(i int) error {
		bin, err := workload.Binary(hosts[i], true)
		if err != nil {
			return err
		}
		m, ps, err := r.attach(2, bin)
		if err != nil {
			return err
		}
		sampler := sampling.NewPCSampler(ps[0], m.Config().QuantumCycles)
		m.AddAgent(sampler)
		m.RunSeconds(1)
		emb, err := bin.IR()
		if err != nil {
			return err
		}
		profs[i] = sampler.DeepLifetime()
		spaces[i] = pc3d.BuildSearchSpace(emb, profs[i])
		siteBlock[i] = make(map[int]string)
		for _, f := range emb.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if ld, ok := in.(*ir.Load); ok {
						siteBlock[i][ld.ID] = b.Name
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, host := range hosts {
		ss := spaces[i]
		// How many surviving sites are ordered by measured block heat (vs
		// falling back to function heat / ID order).
		ranked := 0
		for _, id := range ss.Sites {
			if profs[i].BlockSamples(ss.FuncOf[id], siteBlock[i][id]) > 0 {
				ranked++
			}
		}
		t.AddRow(host, ss.TotalLoads, len(ss.Covered), len(ss.Sites),
			pct(float64(len(ss.Covered))/float64(ss.TotalLoads)),
			pct(float64(len(ss.Sites))/float64(ss.TotalLoads)),
			len(ss.Invariant),
			fmt.Sprintf("%d/%d", ranked, len(ss.Sites)))
		totalFull += ss.TotalLoads
		totalActive += len(ss.Covered)
		totalMax += len(ss.Sites)
		totalInv += len(ss.Invariant)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("aggregate reduction: active-regions %.1fx, max-depth %.1fx (paper: ~12x and ~44x)",
			float64(totalFull)/float64(totalActive), float64(totalFull)/float64(totalMax)))
	if totalInv > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("%d max-depth load(s) additionally pruned as loop-invariant-address (dataflow proof, not in the paper's heuristics)", totalInv))
	}
	t.Notes = append(t.Notes,
		"Block-ranked: sites the greedy search orders by measured block heat; the rest fall back to function heat")
	return t, nil
}
