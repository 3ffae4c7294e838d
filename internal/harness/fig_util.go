package harness

import (
	"fmt"

	"repro/internal/workload"
)

// gridFigure is one of Figures 9–14: every batch host co-located with one
// webservice under PC3D at each QoS target, one PairResult field per cell.
type gridFigure struct {
	n          int // paper figure number
	webservice string
	title      string
	cell       func(PairResult) float64
	mean       bool // append a per-target mean row
	note       string
}

// gridFigures lists Figures 9–11 (the utilization PC3D recovers per
// webservice) and 12–14 (the QoS the webservice actually receives during
// the same runs), in paper order.
func gridFigures() []gridFigure {
	var util, qos []gridFigure
	for i, ws := range workload.Webservices() {
		util = append(util, gridFigure{
			n: 9 + i, webservice: ws,
			title: fmt.Sprintf("Utilization of batch applications running with %s (PC3D)", ws),
			cell:  func(pr PairResult) float64 { return pr.Utilization }, mean: true,
			note: "paper means vs web-search: 81/67/49% at 90/95/98% targets; media-streaming is most sensitive",
		})
		qos = append(qos, gridFigure{
			n: 12 + i, webservice: ws,
			title: fmt.Sprintf("QoS of %s running with batch applications (PC3D)", ws),
			cell:  func(pr PairResult) float64 { return pr.QoS },
			note:  "paper: PC3D reliably meets its QoS targets",
		})
	}
	return append(util, qos...)
}

// table renders the figure from the runner's memoized pair runs.
func (g gridFigure) table(r *Runner) (*Table, error) {
	targets, hosts := r.sc.targets(), r.sc.hosts()
	t := &Table{ID: fmt.Sprintf("Figure %d", g.n), Title: g.title, Columns: append([]string{"App"}, targetCols(targets)...)}
	if err := r.prefetchPairs(pairGrid(hosts, []string{g.webservice}, []System{SystemPC3D}, targets)); err != nil {
		return nil, err
	}
	sums := make([]float64, len(targets))
	for _, host := range hosts {
		row := []any{host}
		for i, tgt := range targets {
			pr, err := r.RunPair(host, g.webservice, SystemPC3D, tgt)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(g.cell(pr)))
			sums[i] += g.cell(pr)
		}
		t.AddRow(row...)
	}
	if g.mean {
		mean := []any{"Mean"}
		for _, s := range sums {
			mean = append(mean, pct(s/float64(len(hosts))))
		}
		t.AddRow(mean...)
	}
	t.Notes = append(t.Notes, g.note)
	return t, nil
}

// Figure15 reproduces Figure 15: PC3D versus ReQoS, averaged over the
// spectrum of external co-runners — utilization improvement (a–c) and
// achieved co-runner QoS for both systems (d–f), per QoS target.
func (r *Runner) Figure15() ([]*Table, error) {
	targets := r.sc.targets()
	exts := r.sc.extSpectrum()
	hosts := r.sc.hosts()
	if err := r.prefetchPairs(pairGrid(hosts, exts, []System{SystemPC3D, SystemReQoS}, targets)); err != nil {
		return nil, err
	}

	var tables []*Table
	for _, tgt := range targets {
		util := &Table{
			ID:      fmt.Sprintf("Figure 15 (%d%% QoS tgt, utilization)", int(tgt*100+0.5)),
			Title:   "PC3D utilization improvement over ReQoS (mean across the co-runner spectrum)",
			Columns: []string{"App", "PC3D util", "ReQoS util", "PC3D/ReQoS"},
		}
		qost := &Table{
			ID:      fmt.Sprintf("Figure 15 (%d%% QoS tgt, QoS)", int(tgt*100+0.5)),
			Title:   "Average co-runner QoS under PC3D and ReQoS",
			Columns: []string{"App", "PC3D QoS", "ReQoS QoS", "Target"},
		}
		var ratioSum, cnt float64
		for _, host := range hosts {
			var uP, uR, qP, qR float64
			for _, ext := range exts {
				prP, err := r.RunPair(host, ext, SystemPC3D, tgt)
				if err != nil {
					return nil, err
				}
				prR, err := r.RunPair(host, ext, SystemReQoS, tgt)
				if err != nil {
					return nil, err
				}
				uP += prP.Utilization
				uR += prR.Utilization
				qP += prP.QoS
				qR += prR.QoS
			}
			n := float64(len(exts))
			uP, uR, qP, qR = uP/n, uR/n, qP/n, qR/n
			improvement := 0.0
			if uR > 0 {
				improvement = uP / uR
			}
			ratioSum += improvement
			cnt++
			util.AddRow(host, pct(uP), pct(uR), ratio(improvement))
			qost.AddRow(host, pct(qP), pct(qR), pct(tgt))
		}
		util.AddRow("Mean", "", "", ratio(ratioSum/cnt))
		util.Notes = append(util.Notes,
			"paper means: 1.25x / 1.45x / 1.52x at 90/95/98% targets; max 2.84x (sphinx3 at 98%)")
		tables = append(tables, util, qost)
	}
	return tables, nil
}

// pairGrid enumerates the full (host, ext, system, target) cross product
// in deterministic order for prefetching.
func pairGrid(hosts, exts []string, systems []System, targets []float64) []pairKey {
	keys := make([]pairKey, 0, len(hosts)*len(exts)*len(systems)*len(targets))
	for _, h := range hosts {
		for _, e := range exts {
			for _, s := range systems {
				for _, tgt := range targets {
					keys = append(keys, pairKey{host: h, ext: e, system: s, target: tgt})
				}
			}
		}
	}
	return keys
}

func targetCols(targets []float64) []string {
	out := make([]string, len(targets))
	for i, t := range targets {
		out[i] = fmt.Sprintf("%d%% QoS tgt", int(t*100+0.5))
	}
	return out
}
