package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/harness"
)

// harnessProbes times the Runner's entry points one at a time at the
// paper-figs scale: a solo calibration, one pair under each mitigation
// system with its solos already memoised, a memoised repeat, and the
// Figure 4 and Figure 8 artifacts.
func (p *prober) harnessProbes() error {
	sc := figScale(p.smoke)
	const host, ext = "libquantum", "web-search"
	var err error

	p.set("harness.solo_cs", p.time("harness.Solo", 3, func() func() {
		r := harness.NewRunner(sc)
		return func() {
			if _, e := r.Solo(host); e != nil {
				err = e
			}
		}
	}), "cs")

	var last *harness.Runner
	results := make(map[harness.System]harness.PairResult)
	pair := func(system harness.System) float64 {
		return p.time("harness.RunPair."+strings.ToLower(system.String()), 2, func() func() {
			r := harness.NewRunner(sc)
			last = r
			for _, app := range []string{host, ext} {
				if _, e := r.Solo(app); e != nil {
					err = e
				}
			}
			return func() {
				pr, e := r.RunPair(host, ext, system, figTarget)
				if e != nil {
					err = e
				}
				results[system] = pr
			}
		})
	}
	none := pair(harness.SystemNone)
	reqos := pair(harness.SystemReQoS)
	pc3d := pair(harness.SystemPC3D)
	if err != nil {
		return err
	}
	p.set("harness.pair_cs.none", none, "cs")
	p.set("harness.pair_cs.reqos", reqos, "cs")
	p.set("harness.pair_cs.pc3d", pc3d, "cs")
	p.set("reqos.pair_extra_pct", overheadPct(reqos, none), "%")
	p.set("pc3d.pair_extra_pct", overheadPct(pc3d, none), "%")
	pr := results[harness.SystemPC3D]
	p.set("pc3d.variants_per_pair", float64(pr.PC3D.VariantEvals), "count")
	p.set("pc3d.nap_probes_per_pair", float64(pr.PC3D.NapProbes), "count")
	// Figure 7's quantity for this pair: the runtime's share of server
	// cycles (the paper: below 1 %).
	p.set("harness.fig7.runtime_share_pct", 100*pr.RuntimeFrac, "%")

	const repeats = 1024
	p.set("harness.memo_repeat_us", 1e6*p.time("harness.RunPair.memo", 3, func() func() {
		return func() {
			for i := 0; i < repeats; i++ {
				if _, e := last.RunPair(host, ext, harness.SystemPC3D, figTarget); e != nil {
					err = e
				}
			}
		}
	})/repeats, "us")

	artifact := func(key string, reps int) (float64, []*harness.Table) {
		a, e := harness.ArtifactByKey(key)
		if e != nil {
			err = e
			return 0, nil
		}
		var tables []*harness.Table
		cs := p.time("harness.Artifact."+key, reps, func() func() {
			r := harness.NewRunner(sc)
			return func() {
				if tables, e = a.Run(r); e != nil {
					err = e
				}
			}
		})
		return cs, tables
	}
	fig4, tables := artifact("fig4", 2)
	fig8, _ := artifact("fig8", 1)
	if err != nil {
		return err
	}
	p.set("harness.fig4_cs", fig4, "cs")
	p.set("harness.fig8_cs", fig8, "cs")
	// Figure 4's headline: mean slowdown of protean code making no
	// modifications (the paper: under 1 %).
	mean := tables[0].Rows[len(tables[0].Rows)-1]
	slowdown, e := strconv.ParseFloat(strings.TrimSuffix(mean[1], "x"), 64)
	if e != nil {
		return fmt.Errorf("fig4 mean row %v: %w", mean, e)
	}
	p.set("harness.fig4.protean_slowdown", slowdown, "ratio")
	return nil
}
