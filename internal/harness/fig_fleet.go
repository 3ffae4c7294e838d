package harness

import (
	"fmt"

	"repro/internal/datacenter"
	"repro/internal/fleet"
)

// FleetComparison pits the measured small-fleet simulation against the
// closed-form Figure 17/18 projection for one (webservice, mix) pair.
// Both routes extrapolate to datacenter.DefaultScale().BaseServers
// machines; the analytic side derives mean utilization from the harness's
// memoized pair runs, the measured side from a real concurrently-simulated
// fleet.
type FleetComparison struct {
	Webservice string
	Mix        string
	// FleetServers is the simulated cluster size.
	FleetServers int
	// MeasuredMeanUtil / AnalyticMeanUtil are the mean batch
	// utilizations each route observes.
	MeasuredMeanUtil float64
	AnalyticMeanUtil float64
	// MeasuredExtra / AnalyticExtra are the dedicated batch servers a
	// no-co-location fleet of BaseServers machines would need.
	MeasuredExtra int
	AnalyticExtra int
	// MeasuredEnergyRatio / AnalyticEnergyRatio are the Figure 18
	// efficiency ratios from each route.
	MeasuredEnergyRatio float64
	AnalyticEnergyRatio float64
	// Metrics is the full measured-fleet result.
	Metrics fleet.Metrics
}

// fleetConfig is the starting point of every fleet figure: the scale's
// durations, engine, fan-out and search cap, round-robin placement and the
// paper's 95% target. Callers add the cluster size and what they study.
func (r *Runner) fleetConfig(webservice string, mix datacenter.Mix, system System, seed int64) fleet.Config {
	return fleet.Config{
		Webservice:     webservice,
		Mix:            mix,
		System:         system,
		Target:         0.95,
		Policy:         fleet.RoundRobin{},
		Seed:           seed,
		Workers:        r.sc.Workers,
		Engine:         r.sc.Engine,
		SoloSeconds:    r.sc.SoloSeconds,
		SettleSeconds:  r.sc.SettleSeconds,
		MeasureSeconds: r.sc.MeasureSeconds,
		MaxSites:       r.sc.MaxSites,
	}
}

// runFleet builds and runs one fleet; the returned Fleet holds the run's
// telemetry, alert and audit views.
func runFleet(cfg fleet.Config) (*fleet.Fleet, fleet.Metrics, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, fleet.Metrics{}, err
	}
	m, err := f.Run()
	return f, m, err
}

// offOn runs cfg(false) then cfg(true) — identical seed, placement, trace
// and fault schedule, one mechanism switched — so every delta between the
// two metrics is that mechanism's doing. The returned Fleet is the on run.
func offOn(cfg func(on bool) fleet.Config) (off, on fleet.Metrics, f *fleet.Fleet, err error) {
	if _, off, err = runFleet(cfg(false)); err == nil {
		f, on, err = runFleet(cfg(true))
	}
	return off, on, f, err
}

// FleetCompare runs both routes for one (webservice, mix) pair at the
// runner's scale. The simulated fleet hosts each mix app on exactly one
// server, saturated, under PC3D at a 95% target — the same regime the
// analytic projection assumes.
func (r *Runner) FleetCompare(webservice string, mix datacenter.Mix) (FleetComparison, error) {
	utils, err := r.pc3dUtilizations(webservice, mix.Apps)
	if err != nil {
		return FleetComparison{}, err
	}
	scale := datacenter.DefaultScale()
	proj, err := datacenter.Project(scale, webservice, mix, utils)
	if err != nil {
		return FleetComparison{}, err
	}
	cfg := r.fleetConfig(webservice, mix, SystemPC3D, 1)
	cfg.Servers = len(mix.Apps)
	_, m, err := runFleet(cfg)
	if err != nil {
		return FleetComparison{}, err
	}

	measuredMean := m.BatchUnits / float64(m.Instances)
	return FleetComparison{
		Webservice:          webservice,
		Mix:                 mix.Name,
		FleetServers:        m.Servers,
		MeasuredMeanUtil:    measuredMean,
		AnalyticMeanUtil:    proj.MeanBatchUtil,
		MeasuredExtra:       int(measuredMean*float64(scale.BaseServers) + 0.5),
		AnalyticExtra:       proj.ExtraServers,
		MeasuredEnergyRatio: m.EnergyEfficiencyRatio,
		AnalyticEnergyRatio: proj.EnergyEfficiencyRatio,
		Metrics:             m,
	}, nil
}

// Figure17Sim is the measured companion to Figures 17/18: a simulated
// PC3D fleet for web-search × WL1, cross-checked against the analytic
// projection the paper's warehouse-scale claims rest on.
func (r *Runner) Figure17Sim() ([]*Table, error) {
	cmp, err := r.FleetCompare("web-search", datacenter.TableIII()[0])
	if err != nil {
		return nil, err
	}
	servers := &Table{
		ID:    "Figure 17 (simulated)",
		Title: "Extra no-co-location servers per 10k machines: measured fleet vs analytic projection",
		Columns: []string{"Workload", "Fleet Size", "Mean Util (fleet)", "Mean Util (analytic)",
			"Extra Servers (fleet)", "Extra Servers (analytic)"},
	}
	servers.AddRow(fmt.Sprintf("%s/%s", cmp.Webservice, cmp.Mix),
		cmp.FleetServers,
		fmt.Sprintf("%.3f", cmp.MeasuredMeanUtil), fmt.Sprintf("%.3f", cmp.AnalyticMeanUtil),
		fmt.Sprintf("%.1fk", float64(cmp.MeasuredExtra)/1000),
		fmt.Sprintf("%.1fk", float64(cmp.AnalyticExtra)/1000))
	servers.Notes = append(servers.Notes,
		"fleet route: each mix app simulated on its own PC3D server, saturated, 95% target",
		fmt.Sprintf("fleet QoS p50/p95/min = %.3f/%.3f/%.3f, violations %d/%d",
			cmp.Metrics.QoS.P50, cmp.Metrics.QoS.P95, cmp.Metrics.QoS.Min,
			cmp.Metrics.QoSViolations, cmp.Metrics.Servers))

	energy := &Table{
		ID:      "Figure 18 (simulated)",
		Title:   "Energy-efficiency ratio: measured fleet vs analytic projection",
		Columns: []string{"Workload", "Fleet", "Analytic"},
	}
	energy.AddRow(fmt.Sprintf("%s/%s", cmp.Webservice, cmp.Mix),
		fmt.Sprintf("%.2f", cmp.MeasuredEnergyRatio),
		fmt.Sprintf("%.2f", cmp.AnalyticEnergyRatio))
	return []*Table{servers, energy}, nil
}
