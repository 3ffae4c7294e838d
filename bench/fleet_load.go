package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"

	"repro/internal/contend"
	"repro/internal/datacenter"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/loadgen"
)

// fleetRun is one fleet configuration of a fleet workload.
type fleetRun struct {
	name string
	cfg  fleet.Config
}

// fleetLoad runs its fleet configurations in every round — one
// fleet.New(cfg).Run() slice each — and after each Run every exporter the
// configuration has data for, each as a slice writing into a memory sink.
type fleetLoad struct {
	name string
	runs []fleetRun
	ctrl bool // the control plane (trace, chaos, migration, SLO) is on
	// activity requires the control plane to have demonstrably run (off in
	// a smoke run, whose horizon is too short for it to).
	activity bool
	tr       *tracer

	sink bytes.Buffer
	last []*fleet.Fleet
}

// Simulated horizons (settle, measure) in seconds. A Run is one opaque
// call, and the estimator's error grows steeply with slice length (0.16 s
// slices repeat to 0.1 %, 0.7 s to 1 %, 1.3 s to 3-5 %), so Runs are kept
// under a second of host time: few servers, not a short horizon, because
// PC3D does nothing before its first search at ~1 simulated second and
// compiles its first variant at ~2.1.
const (
	staticSettle, staticMeasure = 2.0, 0.25
	ctrlSettle, ctrlMeasure     = 0.5, 0.125
	ctrlWindow                  = 0.0625
	smokeSettle, smokeMeasure   = 0.05, 0.05

	ctrlChaosSeed = 13
)

// staticConfig is the straight advanceTo(horizon) path: two saturated
// servers hosting the first two apps of a Table III mix, each running the
// full per-server PC3D stack against the webservice through nap search,
// variant compile and dispatch; no trace, chaos, migration or SLOs. The
// workload runs WL2 (soplex, bst) and WL3 (sledge, soplex); WL1 would put
// compute-bound bzip2 on a server, whose instruction rate makes that Run
// 1.2 s of host time.
func staticConfig(mixName string, seed int64, smoke bool) fleet.Config {
	mix, _ := datacenter.MixByName(mixName)
	cfg := fleet.Config{
		Servers: 2, Webservice: "web-search", Mix: mix,
		System: fleet.SystemPC3D, MaxSites: 6,
		Seed: seed, Workers: 1,
		SoloSeconds: 0.25, SettleSeconds: staticSettle, MeasureSeconds: staticMeasure,
	}
	if smoke {
		cfg.SettleSeconds, cfg.MeasureSeconds = smokeSettle, smokeMeasure
	}
	return cfg
}

// ctrlConfig is the figmigrate / figchaosmigrate fleet of
// internal/harness/fig_migrate.go with every duration scaled down 4-8x:
// twelve servers, four instances of the er-naive + milc mix, no per-server
// mitigation, a phase-spread diurnal trace, chaos in every fault domain
// the fleet consults, live migration and the SLO engine — the
// epoch-barrier path (nine barriers) with load-gated and idle cores. The
// landing-failure rate is lower than the soak's so that moves land within
// the short horizon.
//
// The fault schedule is a fixed input (ctrlChaosSeed), not a function of
// -seed: a crashed server stops simulating, so schedules drawn per seed
// differ by +-12 % in simulated quanta, which is a different workload and
// not noise. Schedule 13 crashes server 1 at 0.37 s; the run lands three
// migrations, fails one (two retries, one rollback), trips the breaker
// once, corrupts one detector sample and replays seven, fires three alerts
// and resolves one.
func ctrlConfig(seed int64, smoke bool) fleet.Config {
	cfg := fleet.Config{
		Servers: 12, Instances: 4, Webservice: "web-search",
		Mix:    datacenter.Mix{Name: "contended", Apps: []string{"er-naive", "milc"}},
		System: fleet.SystemNone, Policy: fleet.RoundRobin{},
		Seed: seed, Workers: 1,
		SoloSeconds: 0.25, SettleSeconds: ctrlSettle, MeasureSeconds: ctrlMeasure,
		Trace: loadgen.Offset{
			Trace: loadgen.Diurnal{Period: 60, Low: 0.25, High: 0.95},
			By:    24,
		},
		PhaseSpreadSeconds: 60,
		Chaos: &faults.Chaos{
			Seed:                ctrlChaosSeed,
			ServerCrashProb:     0.15,
			RestartDelaySeconds: ctrlWindow,
			MoveDetachFailProb:  0.10,
			MoveLandFailProb:    0.30,
			MoveStallMaxSeconds: ctrlWindow / 2,
			SampleCorruptProb:   0.02,
			SampleStaleProb:     0.05,
			QoSDropoutProb:      0.05,
		},
		Migration: &fleet.MigrationConfig{
			WindowSeconds:   ctrlWindow,
			BlackoutSeconds: ctrlWindow,
			BudgetPerEpoch:  2,
			MaxLandAttempts: 2,
			Detector: contend.Config{
				Window: 3, MinSamples: 2, Cooldown: 2,
				Quantile: 0.75, Enter: 1.25, Exit: 1.05,
			},
			Breaker: contend.BreakerConfig{FailureThreshold: 2, CooldownEpochs: 3},
		},
		SLO: &fleet.SLOConfig{},
	}
	if smoke {
		cfg.SettleSeconds, cfg.MeasureSeconds = smokeSettle, smokeMeasure
		cfg.Migration.WindowSeconds = smokeSettle / 2
	}
	return cfg
}

func newFleetStatic(o options, tr *tracer) *fleetLoad {
	return &fleetLoad{name: "fleet-static", tr: tr, runs: []fleetRun{
		{"wl2", staticConfig("WL2", o.seed, o.smoke)},
		{"wl3", staticConfig("WL3", o.seed+1, o.smoke)},
	}}
}

func newFleetCtrl(o options, tr *tracer) *fleetLoad {
	return &fleetLoad{name: "fleet-ctrl", ctrl: true, activity: !o.smoke, tr: tr,
		runs: []fleetRun{{"ctrl", ctrlConfig(o.seed, o.smoke)}}}
}

// Setup runs every configuration with a one-quantum horizon: calibrate,
// place, construct every server, merge — everything Run does except
// advancing simulated time.
func (w *fleetLoad) Setup(yield func()) error {
	for _, r := range w.runs {
		cfg := r.cfg
		cfg.SettleSeconds, cfg.MeasureSeconds = 0.0005, 0.0005
		var f *fleet.Fleet
		var err error
		w.tr.in("fleet.New", func() { f, err = fleet.New(cfg) })
		if err != nil {
			return err
		}
		w.tr.in("fleet.Run", func() { _, err = f.Run() })
		if err != nil {
			return err
		}
		yield()
	}
	return nil
}

// export is one exporter slice: write into the sink, digest the bytes.
func (w *fleetLoad) export(run, name string, write func(io.Writer) error) slice {
	return slice{
		name:  run + "/export/" + name,
		layer: "fleet.export." + name,
		call: func() error {
			w.sink.Reset()
			return write(&w.sink)
		},
		digest: func() uint64 {
			h := fnv.New64a()
			h.Write(w.sink.Bytes())
			return h.Sum64()
		},
	}
}

func (w *fleetLoad) Round() ([]slice, error) {
	var out []slice
	w.last = w.last[:0]
	for _, r := range w.runs {
		f, err := fleet.New(r.cfg)
		if err != nil {
			return nil, err
		}
		w.last = append(w.last, f)
		var mt fleet.Metrics
		out = append(out, slice{
			name:   r.name + "/run",
			layer:  "fleet.Run",
			call:   func() (err error) { mt, err = f.Run(); return },
			digest: func() uint64 { return fnvOf(mt) },
		})
		// The exporters read state Run leaves behind, so their closures
		// resolve it when called, not now.
		out = append(out,
			w.export(r.name, "prom", func(s io.Writer) error { return f.Telemetry().WritePrometheus(s) }),
			w.export(r.name, "jsonl", func(s io.Writer) error { return f.Telemetry().WriteJSONL(s) }),
			w.export(r.name, "chrome", func(s io.Writer) error { return f.Telemetry().WriteChromeTrace(s) }),
			w.export(r.name, "profile", f.WriteProfile),
		)
		if !w.ctrl {
			continue
		}
		out = append(out,
			w.export(r.name, "tsdb", f.WriteTSDB),
			w.export(r.name, "alerts", func(s io.Writer) error { _, err := io.WriteString(s, f.AlertLogJSON()); return err }),
			w.export(r.name, "contend", func(s io.Writer) error {
				st := f.ContendStatus()
				if st == nil {
					return fmt.Errorf("no contend status: no decision epoch ran")
				}
				return st.WriteJSON(s)
			}),
			w.export(r.name, "audit", func(s io.Writer) error {
				rep := f.AuditReport()
				if rep == nil {
					return fmt.Errorf("no audit report: no decision epoch ran")
				}
				return rep.WriteJSON(s)
			}),
		)
	}
	return out, nil
}

// Work is simulated server-seconds per round.
func (w *fleetLoad) Work() float64 {
	sum := 0.0
	for _, r := range w.runs {
		sum += float64(r.cfg.Servers) * (r.cfg.SettleSeconds + r.cfg.MeasureSeconds)
	}
	return sum
}

// Verify re-runs every configuration with two workers (collecting before
// each, as the rounds do), which must export byte-identical Prometheus
// text, and on fleet-ctrl requires evidence that
// the control plane ran: a landed migration, an SLO transition, a crash,
// and a clean conservation audit.
func (w *fleetLoad) Verify(c *checker, ref map[string]uint64) {
	for _, r := range w.runs {
		cfg := r.cfg
		cfg.Workers = 2
		runtime.GC()
		f, err := fleet.New(cfg)
		if err == nil {
			_, err = f.Run()
		}
		if err != nil {
			c.check(false, "%s/%s with 2 workers: %v", w.name, r.name, err)
			continue
		}
		h := fnv.New64a()
		io.WriteString(h, f.Telemetry().PrometheusText())
		c.check(h.Sum64() == ref[r.name+"/export/prom"], "%s/%s: PrometheusText differs between 1 and 2 workers", w.name, r.name)
	}
	if !w.activity {
		return
	}
	f := w.last[0]
	tel := f.Telemetry()
	migrations := tel.CounterValue("contend", "migrations_total")
	crashes := tel.CounterValue("fleet", "scheduled_crashes_total")
	transitions := len(f.AlertTransitions())
	c.check(migrations >= 1, "%s: no migration landed", w.name)
	c.check(transitions >= 1, "%s: no SLO alert transition", w.name)
	c.check(crashes >= 1, "%s: no server crashed", w.name)
	epochs := 0
	if rep := f.AuditReport(); rep != nil && rep.Clean() {
		epochs = len(rep.Epochs)
	}
	c.check(epochs > 0, "%s: conservation audit missing or not clean", w.name)
	fmt.Fprintf(c.log, "%s control plane: %d migrations landed, %d SLO transitions, %d crashes, audit clean over %d epochs\n",
		w.name, migrations, transitions, crashes, epochs)
}
