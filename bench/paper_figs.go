package main

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/workload"
)

// figPair is one co-location cell of the paper-figs workload.
type figPair struct {
	host, ext string
	system    harness.System
}

// figPairs covers PC3D / ReQoS / no mitigation against a latency-sensitive
// and a batch co-runner, over four hosts. Only the PC3D cells compile
// protean binaries, attach a runtime and install NT variants, which drive
// Hierarchy.Replay where the other cells drive ReplayLoads.
var figPairs = []figPair{
	{"libquantum", "web-search", harness.SystemPC3D},
	{"lbm", "er-naive", harness.SystemPC3D},
	{"soplex", "web-search", harness.SystemReQoS},
	{"sphinx3", "er-naive", harness.SystemNone},
}

// figApps is the roster figPairs draws on, co-runners first.
var figApps = []string{"web-search", "er-naive", "libquantum", "lbm", "soplex", "sphinx3"}

const figTarget = 0.95

// paperFigs drives internal/harness the way cmd/experiments does: one
// Runner per round, solo calibrations, co-location pairs, then a figure
// artifact on the same Runner so memoised results are reused. It is the
// workload where compiler, runtime, PC3D, ReQoS, QoS monitors and PC
// sampling run in their real proportion to the machine.
type paperFigs struct {
	sc harness.Scale
	tr *tracer

	cells int
}

// figScale is BenchScale shortened until a round fits the run-time cap
// (see README.md): solo 0.25 s, settle 2 s, measure 0.25 s, stress 0.1 s
// of simulated time, two SPEC apps in Figure 4. Settle is not shorter
// because PC3D starts its first search at ~1 simulated second and compiles
// and dispatches its first variant at ~2.1; by 2.25 s a pair has seen one
// search, two variant evaluations and four nap probes.
func figScale(smoke bool) harness.Scale {
	sc := harness.BenchScale()
	sc.SoloSeconds, sc.SettleSeconds, sc.MeasureSeconds, sc.StressSeconds = 0.25, 2, 0.25, 0.1
	sc.SPECApps = 2
	sc.Workers = 1
	if smoke {
		sc.SoloSeconds, sc.SettleSeconds, sc.MeasureSeconds, sc.StressSeconds = 0.05, 0.05, 0.05, 0.05
	}
	return sc
}

func newPaperFigs(o options, tr *tracer) *paperFigs {
	// harness.Scale carries no seed: the Runner's machines all run seed 0,
	// so this workload's inputs are the same for every -seed.
	return &paperFigs{sc: figScale(o.smoke), tr: tr}
}

// Setup compiles the roster plain and protean through workload.Spec, as
// the Runner will, and builds a Runner.
func (w *paperFigs) Setup(yield func()) error {
	for _, app := range figApps {
		spec := workload.MustByName(app)
		var err error
		w.tr.in("pcc.Compile", func() { _, err = spec.CompilePlain() })
		if err != nil {
			return err
		}
		w.tr.in("pcc.Compile", func() { _, err = spec.CompileProtean() })
		if err != nil {
			return err
		}
		yield()
	}
	w.tr.in("harness.NewRunner", func() { harness.NewRunner(w.sc) })
	return nil
}

func (w *paperFigs) Round() ([]slice, error) {
	r := harness.NewRunner(w.sc)
	var out []slice
	w.cells = 0
	for _, app := range figApps {
		var rates harness.SoloRates
		out = append(out, slice{
			name:   "solo/" + app,
			layer:  "harness.Solo",
			call:   func() (err error) { rates, err = r.Solo(app); return },
			digest: func() uint64 { return fnvOf(rates) },
		})
		w.cells++
	}
	for _, p := range figPairs {
		var pr harness.PairResult
		out = append(out, slice{
			name:   fmt.Sprintf("pair/%s/%s+%s", strings.ToLower(p.system.String()), p.host, p.ext),
			layer:  "harness.RunPair." + strings.ToLower(p.system.String()),
			call:   func() (err error) { pr, err = r.RunPair(p.host, p.ext, p.system, figTarget); return },
			digest: func() uint64 { return fnvOf(pr) },
		})
		w.cells++
	}
	fig4, err := harness.ArtifactByKey("fig4")
	if err != nil {
		return nil, err
	}
	var tables []*harness.Table
	out = append(out, slice{
		name:   "artifact/fig4",
		layer:  "harness.Artifact.fig4",
		call:   func() (err error) { tables, err = fig4.Run(r); return },
		digest: func() uint64 { return tablesDigest(tables) },
	})
	// Figure 4 runs native, protean and DBT per app.
	w.cells += 3 * w.sc.SPECApps
	return out, nil
}

func tablesDigest(tables []*harness.Table) uint64 {
	var vals []any
	for _, t := range tables {
		vals = append(vals, *t)
	}
	return fnvOf(vals...)
}

// Work is experiment cells: solo calibrations, pairs and Figure 4 runs.
func (w *paperFigs) Work() float64 { return float64(w.cells) }

// Verify re-runs the first PC3D pair on a Runner under the interp engine,
// which must reproduce round 0's result exactly.
func (w *paperFigs) Verify(c *checker, ref map[string]uint64) {
	sc := w.sc
	sc.Engine = machine.EngineInterp
	p := figPairs[0]
	pr, err := harness.NewRunner(sc).RunPair(p.host, p.ext, p.system, figTarget)
	name := fmt.Sprintf("pair/%s/%s+%s", strings.ToLower(p.system.String()), p.host, p.ext)
	c.check(err == nil && fnvOf(pr) == ref[name], "interp oracle: %s differs from the default engine (err=%v)", name, err)
	c.check(err == nil && pr.QoS > 0 && pr.Utilization > 0, "%s: QoS %v utilization %v", name, pr.QoS, pr.Utilization)
}
