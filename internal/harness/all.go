package harness

import "fmt"

// FigureFunc produces one or more tables for a paper artifact.
type FigureFunc func(r *Runner) ([]*Table, error)

// Artifact names one reproducible table/figure.
type Artifact struct {
	Key  string // CLI selector, e.g. "fig4"
	Name string // paper name
	Run  FigureFunc
}

func one(f func(r *Runner) (*Table, error)) FigureFunc {
	return func(r *Runner) ([]*Table, error) {
		t, err := f(r)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// static adapts a table that runs nothing.
func static(f func(r *Runner) *Table) FigureFunc {
	return func(r *Runner) ([]*Table, error) { return []*Table{f(r)}, nil }
}

// Artifacts enumerates every table and figure of the evaluation, in paper
// order.
func Artifacts() []Artifact {
	arts := []Artifact{
		{"table1", "Table I", static((*Runner).Table1)},
		{"fig2", "Figure 2", one((*Runner).Figure2)},
		{"fig3", "Figure 3", one((*Runner).Figure3)},
		{"fig4", "Figure 4", one((*Runner).Figure4)},
		{"fig5", "Figure 5", one((*Runner).Figure5)},
		{"fig6", "Figure 6", one((*Runner).Figure6)},
		{"fig7", "Figure 7", one((*Runner).Figure7)},
		{"fig8", "Figure 8", one((*Runner).Figure8)},
		{"table2", "Table II", static((*Runner).Table2)},
	}
	for _, g := range gridFigures() {
		arts = append(arts, Artifact{fmt.Sprintf("fig%d", g.n), fmt.Sprintf("Figure %d", g.n), one(g.table)})
	}
	return append(arts,
		Artifact{"fig15", "Figure 15", (*Runner).Figure15},
		Artifact{"fig16", "Figure 16", one((*Runner).Figure16)},
		Artifact{"table3", "Table III", static((*Runner).Table3)},
		Artifact{"fig17", "Figure 17", one((*Runner).Figure17)},
		Artifact{"fig18", "Figure 18", one((*Runner).Figure18)},
		Artifact{"fig17sim", "Figures 17/18 (simulated fleet)", (*Runner).Figure17Sim},
		Artifact{"figchaos", "Chaos sweep (fault injection)", one((*Runner).FigureChaos)},
		Artifact{"figmigrate", "Migration sweep (contention-driven live migration)", one((*Runner).FigureMigrate)},
		Artifact{"figchaosmigrate", "Chaos-migration soak (transactional moves, breaker, audit)", one((*Runner).FigureChaosMigrate)},
		Artifact{"figslo", "SLO burn-rate alerting vs static thresholds (load-step detection)", one((*Runner).FigureSLO)},
		Artifact{"figtimeline", "Timeline (event trace)", one((*Runner).FigureTimeline)},
		Artifact{"figspans", "Span trees (causal trace)", one((*Runner).FigureSpans)},
	)
}

// ArtifactByKey finds an artifact by its CLI key.
func ArtifactByKey(key string) (Artifact, error) {
	for _, a := range Artifacts() {
		if a.Key == key {
			return a, nil
		}
	}
	return Artifact{}, fmt.Errorf("harness: unknown artifact %q", key)
}
