package harness

import (
	"fmt"
	"strings"

	"repro/internal/datacenter"
	"repro/internal/workload"
)

// Table3 reproduces Table III: the scale-out workload mixes.
func (r *Runner) Table3() *Table {
	t := &Table{
		ID:      "Table III",
		Title:   "Workload mixes for scale-out analysis",
		Columns: []string{"Mix", "Applications"},
	}
	t.AddRow("LS", "web-search, graph-analytics, media-streaming")
	for _, m := range datacenter.TableIII() {
		t.AddRow(m.Name, strings.Join(m.Apps, ", "))
	}
	return t
}

// pc3dUtilizations gathers each app's PC3D utilization at a 95% QoS target
// against the given webservice, reusing memoized pair runs.
func (r *Runner) pc3dUtilizations(webservice string, apps []string) (datacenter.Utilizations, error) {
	if err := r.prefetchPairs(pairGrid(apps, []string{webservice}, []System{SystemPC3D}, []float64{0.95})); err != nil {
		return nil, err
	}
	utils := datacenter.Utilizations{}
	for _, a := range apps {
		pr, err := r.RunPair(a, webservice, SystemPC3D, 0.95)
		if err != nil {
			return nil, err
		}
		utils[a] = pr.Utilization
	}
	return utils, nil
}

// projections evaluates the closed-form scale-out model for every
// (webservice, Table III mix) pair of a 10k-machine base fleet, in paper
// order: the rows of Figures 17 and 18.
func (r *Runner) projections() ([]datacenter.Result, error) {
	seen := map[string]bool{}
	var apps []string
	for _, m := range datacenter.TableIII() {
		for _, a := range m.Apps {
			if !seen[a] {
				seen[a] = true
				apps = append(apps, a)
			}
		}
	}
	var out []datacenter.Result
	for _, ws := range workload.Webservices() {
		utils, err := r.pc3dUtilizations(ws, apps)
		if err != nil {
			return nil, err
		}
		for _, mix := range datacenter.TableIII() {
			res, err := datacenter.Project(datacenter.DefaultScale(), ws, mix, utils)
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// Figure17 reproduces Figure 17: servers required to run each
// (webservice, mix) pair with PC3D co-location versus no co-location.
func (r *Runner) Figure17() (*Table, error) {
	t := &Table{
		ID:      "Figure 17",
		Title:   "Server count required to run workload mixes: PC3D vs no co-location",
		Columns: []string{"Workload", "PC3D", "No Co-location", "Extra Servers"},
	}
	results, err := r.projections()
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		t.AddRow(res.Webservice+"/"+res.Mix,
			fmt.Sprintf("%dk", res.PC3DServers/1000),
			fmt.Sprintf("%.1fk", float64(res.NoColoServers)/1000),
			fmt.Sprintf("%.1fk", float64(res.ExtraServers)/1000))
	}
	t.Notes = append(t.Notes, "paper: 3.5k-8k extra servers needed without co-location")
	return t, nil
}

// Figure18 reproduces Figure 18: datacenter energy efficiency of the
// PC3D-enabled fleet normalized to the no-co-location fleet at equal
// throughput.
func (r *Runner) Figure18() (*Table, error) {
	t := &Table{
		ID:      "Figure 18",
		Title:   "Normalized energy efficiency of workload mixes: PC3D vs no co-location",
		Columns: []string{"Workload", "PC3D", "No Co-location", "Improvement"},
	}
	results, err := r.projections()
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		t.AddRow(res.Webservice+"/"+res.Mix,
			fmt.Sprintf("%.2f", res.EnergyEfficiencyRatio), "1.00",
			pct(res.EnergyEfficiencyRatio-1))
	}
	t.Notes = append(t.Notes, "paper: 18-34% energy-efficiency improvement across mixes")
	return t, nil
}
