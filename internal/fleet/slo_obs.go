// SLO observer: the fleet-side wiring of the judgment layer. At every
// decision-epoch barrier (shared with the migration coordinator when both
// are on) the observer — single-threaded, after the workers joined —
//
//  1. computes per-server service-level indicators for the epoch: QoS
//     attainment (did this server's webservice meet the target this
//     epoch), availability (was the server up), migration-blackout budget
//     (quanta lost to blackouts vs fleet capacity) and audit cleanliness,
//     feeding them into cumulative good/total tsdb series,
//  2. samples every registered counter, gauge and histogram quantile into
//     the tsdb store — fleet rollup first, then the per-server registries
//     in index order, so the store is identical at any worker count,
//  3. evaluates the SLO engine's multi-window burn-rate rules, and
//  4. on a firing transition or a new conservation-audit violation,
//     freezes a postmortem bundle: the trailing tsdb window, the merged
//     event-trace tail, the open span tree, and the contend/audit/SLO
//     snapshots.
package fleet

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// SLOConfig enables the SLO engine on a fleet run.
type SLOConfig struct {
	// WindowSeconds is the evaluation-epoch length (default 0.5). With
	// Migration set the SLO engine always shares the migration barrier
	// cadence — one epoch clock per run.
	WindowSeconds float64
	// Specs are the SLOs to evaluate (nil = DefaultSLOSpecs()).
	Specs []slo.Spec
	// BoostBudget, when > 0 with Migration on, raises the per-epoch
	// migration budget by this many extra moves while the boostSpec alert
	// is firing — the control loop reacting harder while QoS burns.
	BoostBudget int
}

// Fixed SLO-layer constants (tabulated in DESIGN §4). The time-series store
// and the flight recorder run at their packages' default sizes.
const (
	// boostSpec names the spec whose firing state gates the boost.
	boostSpec = "qos-attainment"
	// traceTailEvents is how many merged trace events a postmortem bundle
	// freezes.
	traceTailEvents = 64
	// bundleWindowEpochs is the trailing tsdb window a bundle freezes.
	bundleWindowEpochs = 32
)

func (sc SLOConfig) withDefaults(c Config) SLOConfig {
	if c.Migration != nil {
		// One epoch clock per run: SLO rides the migration barriers.
		sc.WindowSeconds = c.Migration.WindowSeconds
	} else if sc.WindowSeconds <= 0 {
		sc.WindowSeconds = 0.5
	}
	if sc.Specs == nil {
		sc.Specs = DefaultSLOSpecs()
	}
	return sc
}

// Series names the observer feeds (cumulative counters; the engine's
// windows difference them). Exported so custom SLOConfig.Specs can target
// the built-in indicators.
const (
	SeriesQoSGood       = "slo:qos_good"
	SeriesQoSTotal      = "slo:qos_total"
	SeriesAvailGood     = "slo:avail_good"
	SeriesAvailTotal    = "slo:avail_total"
	SeriesBlackoutGood  = "slo:blackout_good"
	SeriesBlackoutTotal = "slo:blackout_total"
	SeriesAuditGood     = "slo:audit_good"
	SeriesAuditTotal    = "slo:audit_total"
)

// DefaultSLOSpecs is the stock SLO suite: QoS attainment and availability
// page on fast burns, the migration-blackout budget and audit invariants
// ticket/page on theirs. Windows are in decision epochs and sized for the
// short simulated horizons this repo runs (a real fleet would use hours).
func DefaultSLOSpecs() []slo.Spec {
	return []slo.Spec{
		{
			Name: "qos-attainment", Good: SeriesQoSGood, Total: SeriesQoSTotal,
			// Objective: 90% of alive server-epochs meet the QoS target.
			Objective: 0.9,
			Rules: []slo.BurnRule{
				{LongEpochs: 4, ShortEpochs: 1, Burn: 2, Severity: "page"},
				{LongEpochs: 8, ShortEpochs: 2, Burn: 1, Severity: "ticket"},
			},
			PendingEpochs: 1, ResolveEpochs: 2,
		},
		{
			Name: "availability", Good: SeriesAvailGood, Total: SeriesAvailTotal,
			// Objective: 99% of server-epochs up.
			Objective: 0.99,
			Rules: []slo.BurnRule{
				{LongEpochs: 2, ShortEpochs: 1, Burn: 2, Severity: "page"},
			},
			PendingEpochs: 1, ResolveEpochs: 2,
		},
		{
			Name: "blackout-budget", Good: SeriesBlackoutGood, Total: SeriesBlackoutTotal,
			// Objective: at most 2% of batch quanta lost to blackouts.
			Objective: 0.98,
			Rules: []slo.BurnRule{
				{LongEpochs: 4, ShortEpochs: 1, Burn: 2, Severity: "ticket"},
			},
			PendingEpochs: 1, ResolveEpochs: 2,
		},
		{
			Name: "audit-clean", Good: SeriesAuditGood, Total: SeriesAuditTotal,
			// Objective 1.0: a single conservation violation is an
			// infinite burn and pages immediately.
			Objective: 1,
			Rules: []slo.BurnRule{
				{LongEpochs: 1, ShortEpochs: 1, Burn: 1, Severity: "page"},
			},
			PendingEpochs: 1, ResolveEpochs: 1,
		},
	}
}

// sloObserver is the per-run state of the SLO barrier step. Touched only in
// the single-threaded coordinator section.
type sloObserver struct {
	f    *Fleet
	sc   SLOConfig
	sims []*serverSim
	db   *tsdb.Store
	eng  *slo.Engine
	rec  *slo.Recorder

	// lastT is the previous barrier's time: saturated QoS is measured
	// against barrier time, not the machine clock.
	lastT float64

	// Cumulative SLI accumulators mirrored into tsdb series.
	qosGood, qosTotal           float64
	availGood, availTotal       float64
	blackoutGood, blackoutTotal float64
	auditGood, auditTotal       float64

	// lastLost / lastViol are the previous barrier's readings for deltas.
	lastLost uint64
	lastViol int
	// capacityQuanta is the fleet's batch quanta per epoch (blackout
	// budget denominator).
	capacityQuanta float64

	cFired, cResolved, cBundles *telemetry.Counter
	gFiring                     *telemetry.Gauge
}

func (f *Fleet) newSLOObserver(sims []*serverSim) *sloObserver {
	sc := *f.cfg.SLO
	mcfg := sims[0].m.Config()
	quantaPerEpoch := sc.WindowSeconds * mcfg.FreqHz / float64(mcfg.QuantumCycles)
	o := &sloObserver{
		f: f, sc: sc, sims: sims,
		db:             tsdb.New(tsdb.Config{}),
		rec:            slo.NewRecorder(slo.DefaultRecorderCap),
		capacityQuanta: quantaPerEpoch * float64(len(sims)),
		cFired:         f.tel.Counter("slo", "alerts_fired_total", "SLO alert firing transitions"),
		cResolved:      f.tel.Counter("slo", "alerts_resolved_total", "SLO alert resolved transitions"),
		cBundles:       f.tel.Counter("slo", "postmortems_total", "postmortem bundles the flight recorder froze"),
		gFiring:        f.tel.Gauge("slo", "alerts_firing", "SLO alerts currently firing"),
	}
	o.eng = slo.NewEngine(o.db, sc.Specs)
	return o
}

// boostBudget returns the extra migration budget granted while the boost
// spec fires (0 otherwise). Read by the migrator at the next barrier, so
// the boost reflects the previous epoch's alert state — the earliest a
// real control loop could react.
func (f *Fleet) boostBudget() int {
	o := f.sloObs
	if o == nil || o.sc.BoostBudget <= 0 || !o.eng.Firing(boostSpec) {
		return 0
	}
	return o.sc.BoostBudget
}

// observeSLIs computes the epoch's per-server indicators and appends the
// cumulative series. Returns whether the conservation auditor reported new
// violations this epoch (a flight-recorder trigger).
func (o *sloObserver) observeSLIs(epoch int, t float64) (newViolations bool) {
	dt := t - o.lastT
	for _, s := range o.sims {
		o.availTotal++
		if s.up(t) {
			o.availGood++
			dws := s.cur.ws.Sub(s.prev.ws)
			ratio := 1.0
			if s.gen != nil {
				if dOff := s.cur.offered - s.prev.offered; dOff > 0 {
					ratio = float64(dws.Completions) / float64(dOff)
					if ratio > 1 {
						ratio = 1
					}
				}
			} else if dt > 0 && o.f.cal.wsSoloIPS > 0 {
				ratio = float64(dws.Insts) / dt / o.f.cal.wsSoloIPS
			}
			o.qosTotal++
			if ratio >= o.f.cfg.Target {
				o.qosGood++
			}
		}
	}
	o.lastT = t

	lost := uint64(o.f.tel.CounterValue("contend", "migration_quanta_lost_total"))
	dLost := float64(lost - o.lastLost)
	o.lastLost = lost
	if dLost > o.capacityQuanta {
		dLost = o.capacityQuanta
	}
	o.blackoutTotal += o.capacityQuanta
	o.blackoutGood += o.capacityQuanta - dLost

	viol := 0
	if o.f.audit != nil {
		viol = len(o.f.audit.rep.Violations)
	}
	o.auditTotal++
	if viol == o.lastViol {
		o.auditGood++
	} else {
		newViolations = true
	}
	o.lastViol = viol

	for _, sv := range []struct {
		name string
		v    float64
	}{
		{SeriesQoSGood, o.qosGood}, {SeriesQoSTotal, o.qosTotal},
		{SeriesAvailGood, o.availGood}, {SeriesAvailTotal, o.availTotal},
		{SeriesBlackoutGood, o.blackoutGood}, {SeriesBlackoutTotal, o.blackoutTotal},
		{SeriesAuditGood, o.auditGood}, {SeriesAuditTotal, o.auditTotal},
	} {
		o.db.Observe(sv.name, tsdb.Point{Epoch: epoch, T: t, V: sv.v})
	}
	return newViolations
}

// barrier is the observer's single-threaded epoch step: SLIs, full metric
// sample, rule evaluation, flight-recorder captures, publication.
func (o *sloObserver) barrier(epoch int, t float64) {
	newViolations := o.observeSLIs(epoch, t)
	regs := make([]*telemetry.Registry, 0, len(o.sims)+1)
	regs = append(regs, o.f.tel)
	regs = append(regs, o.f.serverTel...)
	o.db.Sample(epoch, t, regs...)

	for _, tr := range o.eng.Evaluate(epoch, t) {
		switch tr.To {
		case "firing":
			o.cFired.Inc()
			o.capture("alert:"+tr.Spec, epoch, t)
		case "resolved":
			o.cResolved.Inc()
		}
	}
	if newViolations {
		o.capture("audit:violation", epoch, t)
	}
	firing := 0
	for _, s := range o.sc.Specs {
		if o.eng.Firing(s.Name) {
			firing++
		}
	}
	o.gFiring.Set(float64(firing))
	o.f.publish(func(p *published) {
		p.slo, p.alerts, p.bundles = o.eng.StatusJSON(), o.eng.Log().JSON(), o.rec.Bundles()
	})
}

// capture freezes one postmortem bundle.
func (o *sloObserver) capture(reason string, epoch int, t float64) {
	secs := []slo.Section{
		{Name: "slo", JSON: o.eng.StatusJSON()},
		{Name: "tsdb_window", JSON: o.tsdbWindowJSON()},
		{Name: "trace_tail", JSON: o.traceTailJSON()},
		{Name: "open_spans", JSON: o.openSpansJSON()},
		{Name: "contend", JSON: o.export("contend")},
		{Name: "audit", JSON: o.export("audit")},
	}
	if b := o.rec.Capture(reason, epoch, t, secs); b != nil {
		o.cBundles.Inc()
	}
}

// export renders one of the coordinator's published exports as a section.
func (o *sloObserver) export(name string) string {
	return render(func(w io.Writer) error { return o.f.WriteExport(name, w) })
}

func (o *sloObserver) tsdbWindowJSON() string {
	var b strings.Builder
	o.db.WriteWindowJSON(&b, bundleWindowEpochs) //nolint:errcheck // strings.Builder never errors
	return b.String()
}

// traceTailJSON merges the fleet-scope trace with every server's, stamping
// server indexes, stable-sorted by cycle stamp (concat order — fleet first,
// then servers in index order — breaks ties), and keeps the tail.
func (o *sloObserver) traceTailJSON() string {
	const n = traceTailEvents
	var all []telemetry.Event
	all = append(all, o.f.tel.EventsTail(n)...)
	for i, reg := range o.f.serverTel {
		for _, e := range reg.EventsTail(n) {
			e.Server = i
			all = append(all, e)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	if len(all) > n {
		all = all[len(all)-n:]
	}
	var b strings.Builder
	b.WriteString("[")
	for i, e := range all {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    {\"at\": %d, \"kind\": %s, \"server\": %d, \"core\": %d, \"func\": %s, \"value\": %s, \"detail\": %s}",
			e.At, telemetry.JSONString(e.Kind), e.Server, e.Core, telemetry.JSONString(e.Func),
			telemetry.FormatFloat(e.Value), telemetry.JSONString(e.Detail))
	}
	b.WriteString("\n  ]")
	return b.String()
}

// openSpansJSON snapshots the in-flight span tree: fleet-scope spans plus
// every server's open spans with IDs remapped exactly as the end-of-run
// rollup remaps them ((server+1)<<32 | local).
func (o *sloObserver) openSpansJSON() string {
	var all []telemetry.Span
	all = append(all, o.f.tel.OpenSpans()...)
	for i, reg := range o.f.serverTel {
		for _, s := range reg.OpenSpans() {
			hi := uint64(i+1) << 32
			s.ID = telemetry.SpanID(hi | uint64(s.ID))
			if s.Parent != 0 {
				s.Parent = telemetry.SpanID(hi | uint64(s.Parent))
			}
			s.Server = i
			all = append(all, s)
		}
	}
	var b strings.Builder
	b.WriteString("[")
	for i, s := range all {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    {\"id\": %d, \"parent\": %d, \"name\": %s, \"server\": %d, \"start\": %d}",
			s.ID, s.Parent, telemetry.JSONString(s.Name), s.Server, s.Start)
	}
	b.WriteString("\n  ]")
	return b.String()
}

// AlertTransitions returns every SLO lifecycle transition in epoch order
// (valid after Run; nil with SLO off).
func (f *Fleet) AlertTransitions() []slo.Transition {
	if f.sloObs == nil {
		return nil
	}
	return f.sloObs.eng.Log().Transitions
}

// WriteTSDB exports the time-series store (valid after Run; errors before
// the first barrier or with SLO off).
func (f *Fleet) WriteTSDB(w io.Writer) error {
	if f.sloObs == nil {
		return fmt.Errorf("fleet: no tsdb store (Config.SLO is nil)")
	}
	return f.sloObs.db.WriteJSON(w)
}
