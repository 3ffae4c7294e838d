// Live batch migration: the online control loop that closes the gap
// between "placement happened once" and the paper's always-reacting
// warehouse. With Config.Migration set, the fleet timeline advances in
// decision epochs. At every epoch boundary all servers stop (the same
// worker pool advances them; segment boundaries change nothing about what
// each machine computes), and a single-threaded coordinator:
//
//  1. has already re-placed instances off servers that crashed since the
//     last epoch (the cluster scheduler's reaction — replaceDead, which
//     the control loop runs at every crash instant, each one a barrier of
//     its own — computed against live occupancy rather than the static
//     t=0 assignment),
//  2. samples every server's counters since the previous epoch (CPI,
//     MPKI, LLC miss bandwidth, offered load), evicting dead servers from
//     the detector and applying any seeded sensor faults (corrupted or
//     stale samples),
//  3. feeds them to the internal/contend streaming detector, whose
//     quantile thresholds with hysteresis and cooldown flag contended
//     servers without flapping,
//  4. consults the migration circuit breaker — consecutive failed moves
//     or a corrupt-sample epoch trip it open, suspending migration for a
//     cooldown before a half-open probe move re-arms it — and
//  5. asks the planner for up to the admitted budget of moves, executing
//     each as a transaction: prepare → detach → blackout → land. A landing
//     that fails (seeded fault, or the destination crashed during the
//     blackout) deterministically retries the next eligible destination
//     under capped backoff; when every attempt fails the move rolls back
//     to its source with an extra blackout penalty. An instance is never
//     lost and never runs twice.
//
// Every decision is a pure function of (seed, epoch counters), so runs
// are bit-identical at any -workers, and every decision leaves a trail:
// contend.* counters, EvContended/EvMigration/EvMoveFailed/EvBreaker
// events, contend.decide / contend.migrate(.retry/.rollback) spans, the
// ContendStatus snapshot served at /contend, and the conservation
// auditor's per-epoch report served at /audit.
package fleet

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/contend"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// MigrationConfig tunes the migration control loop.
type MigrationConfig struct {
	// WindowSeconds is the decision-epoch length (default 0.5): one
	// detector sample per server per epoch.
	WindowSeconds float64
	// Detector tunes the streaming detector (zero fields take
	// contend.Config defaults; Seed defaults to the fleet seed).
	Detector contend.Config
	// BudgetPerEpoch caps migrations per decision epoch (default 1).
	BudgetPerEpoch int
	// BlackoutSeconds is the migration cost model: the evicted instance
	// runs nowhere for this long (default 0.25), and the lost quanta are
	// charged to contend_migration_quanta_lost_total.
	BlackoutSeconds float64
	// MaxLandAttempts caps landing attempts per move, the planned
	// destination included (default 3); after the last failure the move
	// rolls back to its source.
	MaxLandAttempts int
	// RetryBackoffSeconds is the extra blackout charged before each retry
	// landing, doubling per attempt up to retryBackoffCapBlackouts
	// (default BlackoutSeconds/2).
	RetryBackoffSeconds float64
	// RollbackPenaltySeconds is the extra blackout charged when a move
	// rolls back to its source (default BlackoutSeconds).
	RollbackPenaltySeconds float64
	// Breaker tunes the migration circuit breaker (zero fields take
	// contend.BreakerConfig defaults).
	Breaker contend.BreakerConfig
}

func (mc MigrationConfig) withDefaults(c Config) MigrationConfig {
	if mc.WindowSeconds <= 0 {
		mc.WindowSeconds = 0.5
	}
	if mc.BudgetPerEpoch <= 0 {
		mc.BudgetPerEpoch = 1
	}
	if mc.BlackoutSeconds <= 0 {
		mc.BlackoutSeconds = 0.25
	}
	if mc.MaxLandAttempts <= 0 {
		mc.MaxLandAttempts = 3
	}
	if mc.RetryBackoffSeconds <= 0 {
		mc.RetryBackoffSeconds = mc.BlackoutSeconds / 2
	}
	if mc.RollbackPenaltySeconds <= 0 {
		mc.RollbackPenaltySeconds = mc.BlackoutSeconds
	}
	if mc.Detector.Seed == 0 {
		mc.Detector.Seed = c.Seed
	}
	mc.Detector = mc.Detector.WithDefaults()
	mc.Breaker = mc.Breaker.WithDefaults()
	return mc
}

// retryBackoffCapBlackouts caps the doubling retry backoff, in multiples of
// BlackoutSeconds.
const retryBackoffCapBlackouts = 2

// Move outcomes recorded in MoveRecord.Outcome.
const (
	// MoveLanded: the instance landed at a destination (possibly after
	// retries).
	MoveLanded = "landed"
	// MoveRolledBack: every landing attempt failed; the instance returned
	// to its source with an extra blackout penalty.
	MoveRolledBack = "rollback"
	// MoveDetachFailed: the move aborted before the source detached; the
	// instance never stopped running.
	MoveDetachFailed = "detach-fail"
)

// MoveRecord is one attempted migration, for the ContendStatus export.
type MoveRecord struct {
	// Epoch and AtSeconds locate the decision.
	Epoch     int
	AtSeconds float64
	App       string
	// From is the source; PlannedTo is the planner's chosen destination;
	// To is where the instance actually ended up (a retry destination on
	// landing faults, the source again on rollback or detach failure).
	From, To  int
	PlannedTo int
	// LandAtSeconds is when the instance resumed (0 for a detach failure,
	// where it never stopped).
	LandAtSeconds float64
	// Outcome is MoveLanded, MoveRolledBack or MoveDetachFailed.
	Outcome string
	// Attempts counts landing attempts (0 for a detach failure).
	Attempts int
	// QuantaLost is the batch quanta charged to this move's blackout,
	// stall jitter, retries and rollback penalty included.
	QuantaLost uint64
}

// ContendStatus is the migration control loop's published state: detector
// thresholds and per-server verdicts at the latest decision epoch, the
// failure/breaker tallies, plus the cumulative move log. Served live at
// /contend and exportable after the run for the determinism gate.
type ContendStatus struct {
	Epoch           int
	AtSeconds       float64
	WindowSeconds   float64
	BlackoutSeconds float64
	Budget          int
	EnterThreshold  float64
	ExitThreshold   float64
	Contended       int
	Migrations      uint64
	QuantaLost      uint64
	// Failure and breaker tallies (all zero on a healthy move path).
	MovesFailed    uint64
	Rollbacks      uint64
	Retries        uint64
	CorruptSamples uint64
	StaleSamples   uint64
	BreakerState   string
	BreakerTrips   uint64
	Servers        []contend.State
	Moves          []MoveRecord
}

// WriteJSON renders the status as deterministic JSON: fixed field order,
// canonical float formatting, no reflection — byte-identical at any
// worker count under a fixed seed.
func (st *ContendStatus) WriteJSON(w io.Writer) error {
	var b strings.Builder
	ff := telemetry.FormatFloat
	fmt.Fprintf(&b, "{\n  \"epoch\": %d,\n  \"at_seconds\": %s,\n", st.Epoch, ff(st.AtSeconds))
	fmt.Fprintf(&b, "  \"window_seconds\": %s,\n  \"blackout_seconds\": %s,\n  \"budget\": %d,\n",
		ff(st.WindowSeconds), ff(st.BlackoutSeconds), st.Budget)
	fmt.Fprintf(&b, "  \"enter_threshold\": %s,\n  \"exit_threshold\": %s,\n", ff(st.EnterThreshold), ff(st.ExitThreshold))
	fmt.Fprintf(&b, "  \"contended\": %d,\n  \"migrations\": %d,\n  \"quanta_lost\": %d,\n",
		st.Contended, st.Migrations, st.QuantaLost)
	fmt.Fprintf(&b, "  \"moves_failed\": %d,\n  \"rollbacks\": %d,\n  \"retries\": %d,\n",
		st.MovesFailed, st.Rollbacks, st.Retries)
	fmt.Fprintf(&b, "  \"corrupt_samples\": %d,\n  \"stale_samples\": %d,\n", st.CorruptSamples, st.StaleSamples)
	fmt.Fprintf(&b, "  \"breaker_state\": %s,\n  \"breaker_trips\": %d,\n", telemetry.JSONString(st.BreakerState), st.BreakerTrips)
	b.WriteString("  \"servers\": [")
	for i, sv := range st.Servers {
		if i > 0 {
			b.WriteString(",")
		}
		contended := "false"
		if sv.Contended {
			contended = "true"
		}
		fmt.Fprintf(&b, "\n    {\"server\": %d, \"score\": %s, \"mpki\": %s, \"miss_rate\": %s, \"util\": %s, \"samples\": %d, \"contended\": %s, \"cooldown\": %d, \"flipped_at\": %d}",
			sv.Server, ff(sv.Score), ff(sv.MPKI), ff(sv.MissRate), ff(sv.Util), sv.Samples, contended, sv.Cooldown, sv.FlippedAt)
	}
	b.WriteString("\n  ],\n  \"moves\": [")
	for i, mv := range st.Moves {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    {\"epoch\": %d, \"at_seconds\": %s, \"app\": %s, \"from\": %d, \"to\": %d, \"planned_to\": %d, \"land_at\": %s, \"outcome\": %s, \"attempts\": %d, \"quanta\": %d}",
			mv.Epoch, ff(mv.AtSeconds), telemetry.JSONString(mv.App), mv.From, mv.To, mv.PlannedTo, ff(mv.LandAtSeconds),
			telemetry.JSONString(mv.Outcome), mv.Attempts, mv.QuantaLost)
	}
	b.WriteString("\n  ]\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// migrator is the per-run state of the decision-epoch coordinator. All of
// it is touched only in the single-threaded coordinator sections between
// epochs, so every decision is a pure function of (seed, epoch counters).
type migrator struct {
	f       *Fleet
	mc      MigrationConfig
	ch      *faults.Chaos
	sims    []*serverSim
	det     *contend.Detector
	brk     *contend.Breaker
	aud     *auditor
	freq    float64
	quantum uint64

	cMig, cLost, cFail, cRoll, cRetry, cTrip, cCorrupt, cStale *telemetry.Counter
	gCont, gBreaker                                            *telemetry.Gauge

	moveSeq uint64
	// moves is the cumulative move log (append-only: published snapshots
	// share its prefixes).
	moves []MoveRecord
	// lastDelivered is what each server's sensor delivered last epoch —
	// the reading a stale sensor replays.
	lastDelivered []contend.Sample
	// spares are this epoch's unused eligible destinations, in planner
	// preference order — the deterministic retry sequence.
	spares []contend.Target
}

// cyc converts simulated seconds to cycles.
func (g *migrator) cyc(sec float64) uint64 { return uint64(sec * g.freq) }

// quanta converts a blackout duration to lost batch quanta.
func (g *migrator) quanta(sec float64) uint64 { return uint64(sec*g.freq) / g.quantum }

// breakerMoved follows every breaker operation: a changed state goes on
// the fleet-scope trace, and a move to open is a trip (the breaker only
// opens by tripping).
func (g *migrator) breakerMoved(t float64, pre contend.BreakerState, cause string) {
	st := g.brk.State()
	if st == pre {
		return
	}
	g.f.tel.Emit(telemetry.Event{
		At: g.cyc(t), Kind: telemetry.EvBreaker, Server: -1,
		Value: float64(st), Detail: cause,
	})
	if st == contend.BreakerOpen {
		g.cTrip.Inc()
	}
}

// newMigrator builds the decision-epoch coordinator described in the
// package comment above; runEpochs drives its barrier once per epoch. sims
// are already constructed and at t=0.
func (f *Fleet) newMigrator(sims []*serverSim) *migrator {
	mc := *f.cfg.Migration
	n := len(sims)
	mcfg := sims[0].m.Config()
	g := &migrator{
		f: f, mc: mc, ch: f.cfg.Chaos, sims: sims,
		det: contend.New(n, mc.Detector), brk: contend.NewBreaker(mc.Breaker),
		freq: mcfg.FreqHz, quantum: mcfg.QuantumCycles,
		cMig:          f.tel.Counter("contend", "migrations_total", "live batch migrations landed"),
		cLost:         f.tel.Counter("contend", "migration_quanta_lost_total", "batch quanta lost to migration blackouts"),
		cFail:         f.tel.Counter("contend", "moves_failed_total", "live migrations that failed (detach faults + rollbacks)"),
		cRoll:         f.tel.Counter("contend", "move_rollbacks_total", "failed moves rolled back to their source"),
		cRetry:        f.tel.Counter("contend", "move_retries_total", "extra landing attempts after a failed landing"),
		cTrip:         f.tel.Counter("contend", "breaker_trips_total", "migration circuit-breaker trips"),
		cCorrupt:      f.tel.Counter("contend", "corrupt_samples_total", "detector samples corrupted by chaos"),
		cStale:        f.tel.Counter("contend", "stale_samples_total", "detector samples replayed stale by chaos"),
		gCont:         f.tel.Gauge("contend", "contended_servers", "servers flagged contended at the latest decision epoch"),
		gBreaker:      f.tel.Gauge("contend", "breaker_state", "migration breaker position (0 closed, 1 half-open, 2 open)"),
		lastDelivered: make([]contend.Sample, n),
	}
	g.aud = newAuditor(f, sims)
	f.audit = g.aud
	return g
}

// barrier is the coordinator's single-threaded epoch step; runEpochs calls
// it after every server has advanced to the barrier and crash victims are
// re-placed. Index order, deterministic.
func (g *migrator) barrier(e int, t float64) {
	n := len(g.sims)
	samples, corruptEpoch := g.sample(e, t)
	verdicts := g.det.Observe(samples)
	states := g.det.States()
	for i, st := range states {
		if st.FlippedAt == g.det.Epoch() {
			v := 0.0
			if st.Contended {
				v = 1
			}
			g.sims[i].reg.Emit(telemetry.Event{
				At: g.sims[i].m.Now(), Kind: telemetry.EvContended,
				Value: v, Detail: telemetry.FormatFloat(st.Score),
			})
		}
	}
	g.gCont.Set(float64(g.det.Contended()))

	// Breaker epoch advance: cooldown countdown, then the corrupt-epoch
	// trip — decisions made from corrupted counters can't be trusted.
	pre := g.brk.State()
	g.brk.BeginEpoch()
	g.breakerMoved(t, pre, "cooldown")
	if corruptEpoch {
		pre = g.brk.State()
		g.brk.TripCorrupt()
		g.breakerMoved(t, pre, "corrupt")
	}
	g.gBreaker.Set(float64(g.brk.State()))

	// The breaker admits moves; a firing QoS burn alert (previous
	// epoch's evaluation — the SLO step runs after this one) raises
	// the admitted budget so the control loop reacts harder while the
	// fleet burns error budget. The breaker still gates everything: an
	// open breaker admits zero moves, boost or not.
	budget := g.brk.Budget(g.mc.BudgetPerEpoch)
	if budget > 0 {
		budget += g.f.boostBudget()
	}
	spDecide := g.f.tel.StartSpan("contend.decide", g.cyc(t), 0)
	g.f.tel.SpanAttrs(spDecide,
		telemetry.Num("epoch", float64(g.det.Epoch())),
		telemetry.Num("contended", float64(g.det.Contended())),
		telemetry.Num("budget", float64(budget)))
	var moves []contend.Move
	g.spares = nil
	if budget > 0 && t+g.mc.BlackoutSeconds < g.f.cfg.horizon() {
		var cands []contend.Candidate
		targets := make([]contend.Target, 0, n)
		for i, s := range g.sims {
			if verdicts[i] && s.up(t) && s.host != nil {
				cands = append(cands, contend.Candidate{
					Server: i, App: s.hostApp, Score: g.f.cal.pressure[s.hostApp],
				})
			}
			targets = append(targets, contend.Target{
				Server: i, Load: samples[i].Util,
				Eligible: s.free(t) && samples[i].Valid && !verdicts[i],
			})
		}
		moves = contend.PlanMoves(g.mc.Detector.Seed, cands, targets, budget)
		// The ordered eligible targets not consumed by the plan are the
		// retry fallbacks, in the same preference order.
		ordered := contend.OrderTargets(g.mc.Detector.Seed, targets)
		if len(moves) < len(ordered) {
			g.spares = ordered[len(moves):]
		}
	}
	for _, mv := range moves {
		outcome := g.executeMove(mv, e, t, spDecide)
		pre := g.brk.State()
		switch {
		case outcome > 0:
			g.brk.RecordSuccess()
			g.breakerMoved(t, pre, "probe-ok")
		case outcome < 0:
			cause := "failures"
			if pre == contend.BreakerHalfOpen {
				cause = "probe-fail"
			}
			g.brk.RecordFailure()
			g.breakerMoved(t, pre, cause)
		}
	}
	g.gBreaker.Set(float64(g.brk.State()))
	g.f.tel.EndSpan(spDecide, g.cyc(t))

	g.aud.check(g.det.Epoch(), t, g.cLost.Value(), g.cMig.Value(), g.cFail.Value())
	st := &ContendStatus{
		Epoch:           g.det.Epoch(),
		AtSeconds:       t,
		WindowSeconds:   g.mc.WindowSeconds,
		BlackoutSeconds: g.mc.BlackoutSeconds,
		Budget:          g.mc.BudgetPerEpoch,
		Contended:       g.det.Contended(),
		Migrations:      g.cMig.Value(),
		QuantaLost:      g.cLost.Value(),
		MovesFailed:     g.cFail.Value(),
		Rollbacks:       g.cRoll.Value(),
		Retries:         g.cRetry.Value(),
		CorruptSamples:  g.cCorrupt.Value(),
		StaleSamples:    g.cStale.Value(),
		BreakerState:    g.brk.State().String(),
		BreakerTrips:    uint64(g.brk.Trips()),
		Servers:         states,
		Moves:           g.moves,
	}
	st.EnterThreshold, st.ExitThreshold = g.det.Thresholds()
	g.f.publish(func(p *published) { p.contend, p.audit = st, g.aud.snapshot() })
}

// sample derives every server's contention signals for this epoch from
// its barrier readings: dead servers are evicted from the detector (their
// stale windows must not pin the fleet quantile), and live servers'
// readings pass through the seeded sensor-fault schedule — corrupted
// samples arrive scaled by a garbage factor, stale samples replay what the
// sensor last delivered.
func (g *migrator) sample(e int, t float64) (samples []contend.Sample, corruptEpoch bool) {
	samples = make([]contend.Sample, len(g.sims))
	for i, s := range g.sims {
		raw := s.contendSample()
		if !s.up(t) {
			g.det.Evict(i)
			samples[i] = contend.Sample{}
			g.lastDelivered[i] = contend.Sample{}
			continue
		}
		if g.ch != nil {
			switch g.ch.SampleFaultAt(i, uint64(e)) {
			case faults.SampleCorrupt:
				fct := g.ch.CorruptFactor(i, uint64(e))
				raw.CPI *= fct
				raw.MPKI *= fct
				raw.MissRate *= fct
				g.cCorrupt.Inc()
				corruptEpoch = true
			case faults.SampleStale:
				if g.lastDelivered[i].Valid {
					raw = g.lastDelivered[i]
					g.cStale.Inc()
				}
			}
		}
		samples[i] = raw
		g.lastDelivered[i] = raw
	}
	return samples, corruptEpoch
}

// takeSpare pops the next fallback destination still alive at the landing
// time and still free, in planner preference order. Freshness is
// re-checked at take time: an earlier move's rollback may have landed on a
// server that was spare at decision time.
func (g *migrator) takeSpare(land float64) (int, bool) {
	for len(g.spares) > 0 {
		tgt := g.spares[0]
		g.spares = g.spares[1:]
		if g.sims[tgt.Server].free(land) {
			return tgt.Server, true
		}
	}
	return -1, false
}

// executeMove runs one planned move as a transaction. Because every fault
// decision and crash time is a pure function of the seed, the whole
// prepare → detach → blackout → land(+retries) → rollback chain resolves
// eagerly at decision time: exactly one arrival is scheduled per detached
// instance, so the instance is never lost and never runs twice. Returns
// +1 when the instance landed at a destination, -1 when the move failed
// (the breaker's signals), 0 for a no-op.
func (g *migrator) executeMove(mv contend.Move, epoch int, t float64, spDecide telemetry.SpanID) int {
	mc, ch := g.mc, g.ch
	src := g.sims[mv.From]
	seq := g.moveSeq
	g.moveSeq++
	sp := g.f.tel.StartSpan("contend.migrate", g.cyc(t), spDecide)
	g.f.tel.SpanAttrs(sp,
		telemetry.Str("app", mv.App),
		telemetry.Num("from", float64(mv.From)),
		telemetry.Num("to", float64(mv.To)))
	rec := MoveRecord{
		Epoch: epoch, AtSeconds: t, App: mv.App,
		From: mv.From, To: mv.To, PlannedTo: mv.To,
	}
	if ch != nil && ch.MoveDetachFails(mv.From, seq) {
		// Prepare failed: the instance never leaves the source.
		g.cFail.Inc()
		src.reg.Emit(telemetry.Event{
			At: src.m.Now(), Kind: telemetry.EvMoveFailed,
			Func: mv.App, Value: float64(mv.To), Detail: "detach",
		})
		rec.Outcome, rec.To = MoveDetachFailed, mv.From
		g.f.tel.EndSpan(sp, g.cyc(t))
		g.finishMove(rec)
		return -1
	}
	app := src.detachBatch()
	if app == "" {
		// Planner raced an empty source; nothing to do.
		g.f.tel.EndSpan(sp, g.cyc(t))
		return 0
	}
	src.reg.Counter("contend", "migrations_out_total", "batch instances evicted from this server by the migration planner").Inc()
	src.reg.Emit(telemetry.Event{
		At: src.m.Now(), Kind: telemetry.EvMigration,
		Func: app, Value: float64(mv.To), Detail: "out",
	})
	// dur accumulates the blackout as a sum of configured durations, and
	// quanta charges come from dur rather than landing-time differences —
	// float subtraction could round a clean blackout to one quantum short.
	dur := mc.BlackoutSeconds
	if ch != nil {
		dur += ch.MoveStallSeconds(mv.From, seq)
	}
	backoff, backoffCap := mc.RetryBackoffSeconds, retryBackoffCapBlackouts*mc.BlackoutSeconds
	dst := mv.To
	for attempt := 1; ; attempt++ {
		rec.Attempts = attempt
		land := t + dur
		landFault := ch != nil && ch.MoveLandFails(dst, seq, attempt)
		if !landFault && land < g.sims[dst].stop {
			// Landed: the destination is alive at landing and accepted it.
			g.sims[dst].scheduleArrival(arrival{App: app, AtSeconds: land, migrated: true, from: mv.From})
			lost := g.quanta(dur)
			g.cMig.Inc()
			g.cLost.Add(lost)
			rec.Outcome, rec.To, rec.LandAtSeconds, rec.QuantaLost = MoveLanded, dst, land, lost
			g.f.tel.EndSpan(sp, g.cyc(land))
			g.finishMove(rec)
			return 1
		}
		// This attempt failed (landing fault, or the destination is dead
		// by landing time). Retry the next eligible destination under
		// capped backoff, or roll back once attempts run out.
		next, ok := -1, false
		if attempt < mc.MaxLandAttempts {
			next, ok = g.takeSpare(land + backoff)
		}
		if !ok {
			g.rollback(&rec, src, app, dur, sp)
			return -1
		}
		spR := g.f.tel.StartSpan("contend.migrate.retry", g.cyc(land), sp)
		g.f.tel.SpanAttrs(spR,
			telemetry.Num("attempt", float64(attempt)),
			telemetry.Num("to", float64(next)))
		dur += backoff
		g.f.tel.EndSpan(spR, g.cyc(t+dur))
		g.cRetry.Inc()
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
		dst = next
	}
}

// rollback returns a detached instance to its source with an extra
// blackout penalty. If the source itself will be dead by then, the
// scheduler lands it on the lowest-index free survivor instead; with
// nowhere at all to go it still returns to the (dead) source, where the
// auditor accounts it as lost to the crash, not to the migration.
func (g *migrator) rollback(rec *MoveRecord, src *serverSim, app string, dur float64, sp telemetry.SpanID) {
	mc := g.mc
	rbDur := dur + mc.RollbackPenaltySeconds
	rbLand := rec.AtSeconds + rbDur
	target := src.idx
	if rbLand >= src.stop {
		if j := firstFree(g.sims, rbLand, src.idx); j >= 0 {
			target = j
		}
	}
	g.sims[target].scheduleArrival(arrival{App: app, AtSeconds: rbLand, migrated: true, from: src.idx, rollback: true})
	lost := g.quanta(rbDur)
	g.cFail.Inc()
	g.cRoll.Inc()
	g.cLost.Add(lost)
	src.reg.Emit(telemetry.Event{
		At: src.m.Now(), Kind: telemetry.EvMoveFailed,
		Func: app, Value: float64(rec.PlannedTo), Detail: "rollback",
	})
	spRB := g.f.tel.StartSpan("contend.migrate.rollback", g.cyc(rec.AtSeconds+dur), sp)
	g.f.tel.SpanAttrs(spRB, telemetry.Num("to", float64(target)))
	g.f.tel.EndSpan(spRB, g.cyc(rbLand))
	rec.Outcome, rec.To, rec.LandAtSeconds, rec.QuantaLost = MoveRolledBack, target, rbLand, lost
	g.f.tel.EndSpan(sp, g.cyc(rbLand))
	g.finishMove(*rec)
}

// finishMove logs the move record and feeds the auditor's expectations.
func (g *migrator) finishMove(rec MoveRecord) {
	g.moves = append(g.moves, rec)
	g.aud.recordMove(rec)
}
