package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/contend"
	"repro/internal/fleet"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// fleetProbes times Fleet.Run on both paths, the control plane's cost
// (same fleet, migration + SLO on against off, no faults), construction
// per server, every exporter, and each barrier stage through the public
// API of the package that implements it; the stage costs times the epoch
// count over the run is the share of a run spent inside barriers, the
// Amdahl term that bounds what more workers can buy.
func (p *prober) fleetProbes() error {
	var err error
	// run times cfg's Run over reps fresh fleets and returns the last.
	run := func(cfg fleet.Config, reps int, before func(*fleet.Fleet)) (float64, *fleet.Fleet, fleet.Metrics) {
		var f *fleet.Fleet
		var mt fleet.Metrics
		cs := p.time("fleet.Run", reps, func() func() {
			var e error
			if f, e = fleet.New(cfg); e != nil {
				err = e
				return func() {}
			}
			if before != nil {
				before(f)
			}
			return func() {
				if mt, e = f.Run(); e != nil {
					err = e
				}
			}
		})
		return cs, f, mt
	}
	serverSeconds := func(cfg fleet.Config) float64 {
		return float64(cfg.Servers) * (cfg.SettleSeconds + cfg.MeasureSeconds)
	}

	static := staticConfig("WL2", p.seed, p.smoke)
	staticCS, _, _ := run(static, 1, nil)
	ctrl := ctrlConfig(p.seed, p.smoke)
	ctrlCS, f, mt := run(ctrl, 1, nil)
	if err != nil {
		return err
	}
	p.set("fleet.cs_per_server_s.static", staticCS/serverSeconds(static), "cs")
	p.set("fleet.cs_per_server_s.ctrl", ctrlCS/serverSeconds(ctrl), "cs")
	epochs := 0
	if st := f.ContendStatus(); st != nil {
		epochs = st.Epoch
	}
	tel := f.Telemetry()
	p.set("fleet.epochs", float64(epochs), "count")
	p.set("fleet.migrations", float64(mt.Migrations), "count")
	p.set("fleet.alerts_fired", float64(mt.AlertsFired), "count")
	p.set("fleet.crashes", float64(mt.Crashes), "count")
	p.set("fleet.audit_violations", float64(mt.AuditViolations), "count")
	p.set("fleet.quanta_total", float64(tel.CounterValue("machine", "quanta_total")), "count")

	quiet := ctrl
	quiet.Chaos = nil
	off := quiet
	off.Migration, off.SLO = nil, nil
	onCS, _, _ := run(quiet, 1, nil)
	offCS, _, _ := run(off, 1, nil)
	p.set("fleet.ctrl_overhead_pct", overheadPct(onCS, offCS), "%")

	// Construction: the one-quantum horizon with twelve servers against
	// one, so that calibration, which both pay once, cancels.
	tiny := off
	tiny.SettleSeconds, tiny.MeasureSeconds = 0.0005, 0.0005
	single := tiny
	single.Servers, single.Instances = 1, 1
	// Handler switches live publishing on, which at this horizon is one
	// final deposit per server, for the Snapshot probe below.
	manyCS, live, _ := run(tiny, 1, func(f *fleet.Fleet) { f.Handler() })
	oneCS, one, _ := run(single, 1, nil)
	if err != nil {
		return err
	}
	p.set("fleet.construct_cs_per_server", (manyCS-oneCS)/float64(tiny.Servers-single.Servers), "cs")
	// Snapshot merges what the servers last published for the scrape
	// surface.
	p.set("fleet.snapshot_ms", 1e3*p.time("fleet.Snapshot", 3, func() func() {
		return func() { live.Snapshot() }
	}), "ms")

	var sink bytes.Buffer
	export := func(name string, write func(io.Writer) error) {
		p.set("fleet.export_ms."+name, 1e3*p.time("fleet.export."+name, 3, func() func() {
			sink.Reset()
			return func() {
				if e := write(&sink); e != nil {
					err = e
				}
			}
		}), "ms")
	}
	export("prom", tel.WritePrometheus)
	export("jsonl", tel.WriteJSONL)
	export("chrome", tel.WriteChromeTrace)
	export("profile", f.WriteProfile)
	export("tsdb", f.WriteTSDB)
	export("alerts", func(w io.Writer) error { _, e := io.WriteString(w, f.AlertLogJSON()); return e })
	export("contend", func(w io.Writer) error {
		st := f.ContendStatus()
		if st == nil {
			return fmt.Errorf("fleet probe: no contend status")
		}
		return st.WriteJSON(w)
	})
	export("audit", func(w io.Writer) error {
		rep := f.AuditReport()
		if rep == nil {
			return fmt.Errorf("fleet probe: no audit report")
		}
		return rep.WriteJSON(w)
	})
	if err != nil {
		return err
	}

	// Telemetry plane: merging and cloning the run's rollup, and one event.
	servers := float64(ctrl.Servers)
	p.set("telemetry.merge_us_per_server", 1e6*p.time("telemetry.MergeFrom", 3, func() func() {
		dst := telemetry.New(telemetry.Config{})
		return func() { dst.MergeFrom(tel, 0) }
	})/servers, "us")
	p.set("telemetry.clone_us", 1e6*p.time("telemetry.Clone", 3, func() func() {
		return func() { tel.Clone() }
	}), "us")
	const emits = 1 << 17
	p.set("telemetry.emit_ns", 1e9*p.time("telemetry.Emit", 3, func() func() {
		reg := telemetry.New(telemetry.Config{})
		return func() {
			for i := 0; i < emits; i++ {
				reg.Emit(telemetry.Event{At: uint64(i), Kind: telemetry.EvDispatch, Func: "f", Value: 1})
			}
		}
	})/emits, "ns")

	// Barrier stages, at the fleet-ctrl shape: twelve servers, its epoch
	// count, the metric set one of its servers registers.
	const stageEpochs = 64
	perServer := one.Telemetry()
	regs := []*telemetry.Registry{tel}
	for i := 0; i < ctrl.Servers; i++ {
		regs = append(regs, perServer)
	}
	var db *tsdb.Store
	sample := p.time("tsdb.Sample", 3, func() func() {
		db = tsdb.New(tsdb.Config{})
		return func() {
			for e := 1; e <= stageEpochs; e++ {
				db.Sample(e, float64(e)*ctrlWindow, regs...)
			}
		}
	}) / stageEpochs
	p.set("tsdb.sample_us_per_server", 1e6*sample/servers, "us")
	p.set("tsdb.write_json_ms", 1e3*p.time("tsdb.WriteJSON", 3, func() func() {
		sink.Reset()
		return func() {
			if e := db.WriteJSON(&sink); e != nil {
				err = e
			}
		}
	}), "ms")

	evaluate := p.time("slo.Evaluate", 3, func() func() {
		// Cumulative good/total series for the four stock SLOs, one error
		// in sixteen, so rules become evaluable and alerts cycle.
		db := tsdb.New(tsdb.Config{})
		specs := fleet.DefaultSLOSpecs()
		for e := 1; e <= stageEpochs; e++ {
			t := float64(e) * ctrlWindow
			for _, s := range specs {
				db.Observe(s.Total, tsdb.Point{Epoch: e, T: t, V: float64(16 * e)})
				db.Observe(s.Good, tsdb.Point{Epoch: e, T: t, V: float64(15*e + e/2)})
			}
		}
		eng := slo.NewEngine(db, specs)
		return func() {
			for e := 1; e <= stageEpochs; e++ {
				eng.Evaluate(e, float64(e)*ctrlWindow)
			}
		}
	}) / stageEpochs
	p.set("slo.evaluate_us", 1e6*evaluate, "us")

	r := newRNG(p.seed, 30)
	samples := make([][]contend.Sample, stageEpochs)
	for e := range samples {
		for i := 0; i < ctrl.Servers; i++ {
			cpi := 1 + float64(r.next()%1000)/1000
			samples[e] = append(samples[e], contend.Sample{CPI: cpi, MPKI: 10 * cpi, MissRate: 1e6 * cpi, Util: 0.5, Valid: true})
		}
	}
	observe := p.time("contend.Observe", 3, func() func() {
		det := contend.New(ctrl.Servers, ctrl.Migration.Detector)
		return func() {
			for _, s := range samples {
				det.Observe(s)
			}
		}
	}) / stageEpochs
	p.set("contend.observe_us_per_server", 1e6*observe/servers, "us")

	var cands []contend.Candidate
	var targets []contend.Target
	for i := 0; i < ctrl.Servers; i++ {
		if i < ctrl.Instances {
			cands = append(cands, contend.Candidate{Server: i, App: "er-naive", Score: float64(1 + r.next()%100)})
		}
		targets = append(targets, contend.Target{Server: i, Load: float64(r.next()%100) / 100, Eligible: i >= ctrl.Instances})
	}
	const plans = 1024
	plan := p.time("contend.PlanMoves", 3, func() func() {
		return func() {
			for i := 0; i < plans; i++ {
				contend.PlanMoves(p.seed, cands, targets, ctrl.Migration.BudgetPerEpoch)
			}
		}
	}) / plans
	p.set("contend.plan_us", 1e6*plan, "us")

	barrier := sample + evaluate + observe + plan
	p.set("fleet.barrier_share_pct", 100*float64(epochs)*barrier/ctrlCS, "%")
	return err
}
