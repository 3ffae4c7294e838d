package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/machine"
	"repro/internal/progbin"
	"repro/internal/workload"
)

// aloneRun is one Figure 4–6 configuration of an app running alone.
type aloneRun struct {
	// protean runs the virtualized binary instead of the plain one.
	protean bool
	// dbt, when set, executes under a binary translator's cost model.
	dbt *machine.DBTConfig
	// stress > 0 attaches a protean runtime on runtimeCore (core.SameCore =
	// the host's own) recompiling a random function every stress seconds.
	stress      float64
	runtimeCore int
}

// runAlone executes a binary alone for the stress duration and returns its
// branch count (the work-rate numerator shared by Figures 4–6).
func (r *Runner) runAlone(bin *progbin.Binary, v aloneRun) (uint64, error) {
	m := machine.New(machine.Config{Cores: 4, Engine: r.sc.Engine})
	p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true, DBT: v.dbt})
	if err != nil {
		return 0, err
	}
	if v.stress > 0 {
		rt, err := core.New(core.Config{Machine: m, Host: p, RuntimeCore: v.runtimeCore})
		if err != nil {
			return 0, err
		}
		m.AddAgent(rt)
		m.AddAgent(core.NewStressRecompiler(rt, m.Cycles(v.stress), 1))
	}
	return window(m, 0.3, r.sc.StressSeconds, p)[0].Branches, nil
}

// slowdowns runs app natively and once per variant, returning each
// variant's slowdown versus native (1.0 = free).
func (r *Runner) slowdowns(app string, variants ...aloneRun) ([]float64, error) {
	plain, err := workload.Binary(app, false)
	if err != nil {
		return nil, err
	}
	prot, err := workload.Binary(app, true)
	if err != nil {
		return nil, err
	}
	native, err := r.runAlone(plain, aloneRun{})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(variants))
	for i, v := range variants {
		bin := plain
		if v.protean {
			bin = prot
		}
		n, err := r.runAlone(bin, v)
		if err != nil {
			return nil, err
		}
		out[i] = float64(native) / float64(n)
	}
	return out, nil
}

// Figure4 reproduces Figure 4: the overhead of virtualizing execution with
// protean code versus DynamoRIO, making no code modifications, per SPEC
// application. Values are slowdown versus native (1.0 = free).
func (r *Runner) Figure4() (*Table, error) {
	t := &Table{
		ID:      "Figure 4",
		Title:   "Dynamic compiler overhead when making no code modifications (slowdown vs native)",
		Columns: []string{"App", "protean code", "DynamoRIO"},
	}
	apps := r.sc.specApps()
	rows := make([][]float64, len(apps))
	err := r.forEach(len(apps), func(i int) (err error) {
		rows[i], err = r.slowdowns(apps[i], aloneRun{protean: true}, aloneRun{dbt: dbt.DynamoRIO()})
		return err
	})
	if err != nil {
		return nil, err
	}
	var sumP, sumD float64
	for i, app := range apps {
		sumP += rows[i][0]
		sumD += rows[i][1]
		t.AddRow(app, ratio(rows[i][0]), ratio(rows[i][1]))
	}
	n := float64(len(apps))
	t.AddRow("Mean", ratio(sumP/n), ratio(sumD/n))
	t.Notes = append(t.Notes, "paper: protean <1% mean overhead, DynamoRIO ~18% mean")
	return t, nil
}

// Figure5 reproduces Figure 5: dynamic-compilation stress tests with the
// runtime (and compiler) on a separate core, recompiling random functions
// at decreasing intervals. Values are slowdown versus native.
func (r *Runner) Figure5() (*Table, error) {
	t := &Table{
		ID:      "Figure 5",
		Title:   "Dynamic compilation stress tests; compilation on a separate core (slowdown vs native)",
		Columns: []string{"App", "Edge virt.", "5000ms", "500ms", "50ms", "5ms"},
	}
	variants := []aloneRun{{protean: true}}
	for _, iv := range []float64{5.0, 0.5, 0.05, 0.005} {
		variants = append(variants, aloneRun{protean: true, stress: iv, runtimeCore: 2})
	}
	apps := r.sc.specApps()
	rows := make([][]float64, len(apps))
	err := r.forEach(len(apps), func(i int) (err error) {
		rows[i], err = r.slowdowns(apps[i], variants...)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, app := range apps {
		row := []any{app}
		for _, v := range rows[i] {
			row = append(row, ratio(v))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper: negligible overhead at every interval when compiling on a separate core")
	return t, nil
}

// Figure6 reproduces Figure 6: the same stress tests comparing running the
// runtime compiler on the host's own core versus a separate core, averaged
// across the SPEC roster.
func (r *Runner) Figure6() (*Table, error) {
	intervals := []float64{0.005, 0.01, 0.05, 0.2, 1.0, 5.0}
	t := &Table{
		ID:      "Figure 6",
		Title:   "Dynamic compilation stress on same vs separate core (mean slowdown vs native)",
		Columns: []string{"Interval", "Same Core", "Separate Core"},
	}
	apps := r.sc.specApps()
	cells := make([][]float64, len(intervals)*len(apps)) // {same, separate}
	err := r.forEach(len(cells), func(i int) (err error) {
		iv := intervals[i/len(apps)]
		cells[i], err = r.slowdowns(apps[i%len(apps)],
			aloneRun{protean: true, stress: iv, runtimeCore: core.SameCore},
			aloneRun{protean: true, stress: iv, runtimeCore: 2})
		return err
	})
	if err != nil {
		return nil, err
	}
	for j, iv := range intervals {
		var sumSame, sumSep float64
		for k := range apps {
			sumSame += cells[j*len(apps)+k][0]
			sumSep += cells[j*len(apps)+k][1]
		}
		n := float64(len(apps))
		t.AddRow(fmt.Sprintf("%.0fms", iv*1000), ratio(sumSame/n), ratio(sumSep/n))
	}
	t.Notes = append(t.Notes,
		"paper: same-core overhead significant at 5ms, negligible by 800ms; separate core always negligible")
	return t, nil
}

// Figure7 reproduces Figure 7: the fraction of server cycles the PC3D
// runtime consumes while managing each batch application (co-located with
// web-search at a 95% QoS target; shares runs with Figure 9).
func (r *Runner) Figure7() (*Table, error) {
	t := &Table{
		ID:      "Figure 7",
		Title:   "Average fraction of server cycles consumed by the PC3D runtime",
		Columns: []string{"App", "% of Server Cycles"},
	}
	hosts := r.sc.hosts()
	if err := r.prefetchPairs(pairGrid(hosts, []string{"web-search"}, []System{SystemPC3D}, []float64{0.95})); err != nil {
		return nil, err
	}
	for _, host := range hosts {
		pr, err := r.RunPair(host, "web-search", SystemPC3D, 0.95)
		if err != nil {
			return nil, err
		}
		t.AddRow(host, pct(pr.RuntimeFrac))
	}
	t.Notes = append(t.Notes, "paper: below 1% in all cases (includes the initial variant-search burst)")
	return t, nil
}
