// Package supervise implements runtime supervision: the recovery half of
// the paper's safety argument.
//
// Protean code's deployment story for warehouse-scale computers leans on a
// guarantee (Section III-B): the runtime is an *optional* process. If it
// crashes, the host binary keeps executing — at worst through previously
// dispatched variants, and after a single atomic EVT write per slot, through
// its original static code. Nothing about the host's correctness depends on
// the runtime staying alive.
//
// A Supervisor turns that guarantee into a self-healing loop. It owns a
// runtime/policy session (e.g. core.Runtime + pc3d.Controller), ticks them
// as one machine agent, and watches for the runtime dying (injected via a
// faults schedule, or observed via core.Runtime.Crashed). On a crash it:
//
//  1. shuts the policy down (safe mid-quantum: agentloop defers the drain
//     to the quantum boundary),
//  2. executes the safety guarantee — every EVT slot is pointed back at the
//     original static entry, without the runtime's help, because the EVT
//     and the static code both live in the host — and
//  3. re-attaches a fresh runtime/policy session after a capped
//     exponential backoff, so a crash-looping runtime cannot consume the
//     host in restart churn.
//
// The host process never stops across any of this.
package supervise

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

// Session is one runtime/policy incarnation under supervision.
type Session struct {
	// Runtime is the protean runtime; required.
	Runtime *core.Runtime
	// Policy is the decision agent driving the runtime (e.g.
	// *pc3d.Controller); optional.
	Policy machine.Agent
	// Close shuts the policy down; optional. It must be safe to call from
	// inside a machine tick (agentloop.Loop.Close is).
	Close func()
}

// Builder constructs a fresh session: it attaches a new runtime to the host
// and builds the policy around it. Called once at supervisor creation and
// again at every restart.
type Builder func() (*Session, error)

// Config tunes the supervisor (consumed by New).
type Config struct {
	// CrashFn, when non-nil, is the injected crash schedule: consulted once
	// per quantum with the current cycle, a true return kills the live
	// runtime (e.g. faults.Chaos.RuntimeCrashFn).
	CrashFn func(nowCycles uint64) bool
	// BackoffMaxSeconds caps the re-attach backoff's exponential growth
	// (default 1.0): a crash loop converges to one restart per
	// BackoffMaxSeconds.
	BackoffMaxSeconds float64
	// Telemetry receives supervision counters (reaps, restarts, reverted
	// slots), the backoff/healthy gauges, and reap/re-attach trace events
	// under the "supervise" subsystem. Nil exports nothing. The counters are
	// the only record of supervision activity; on a registry shared with
	// other supervisors (a fleet server's) they hold the cumulative counts.
	Telemetry *telemetry.Registry
}

// Fixed supervision constants (tabulated in DESIGN §4), in simulated seconds.
const (
	// backoffSeconds is the delay before the first re-attach after a crash.
	backoffSeconds = 0.05
	// backoffResetSeconds: when a session survives this long, the backoff
	// resets to backoffSeconds. Shorter-lived sessions keep doubling it.
	backoffResetSeconds = 2.0
)

// Supervisor watches one host's runtime/policy session. It implements
// machine.Agent; register it with the machine INSTEAD of the runtime and
// policy — the supervisor ticks both, which is what lets it excise them
// atomically on a crash.
type Supervisor struct {
	m     *machine.Machine
	host  *machine.Process
	build Builder
	cfg   Config

	sess         *Session
	sessionStart uint64
	retryAt      uint64
	backoff      uint64 // cycles
	// restarts numbers this supervisor's re-attaches for the EvReattach
	// event and restart span. It is a label, not a metric: the registry's
	// restarts_total may span several supervisors.
	restarts int

	// spRecovery spans one reap→…→re-attach episode; spBackoff spans each
	// backoff wait inside it (one per failed builder attempt).
	spRecovery telemetry.SpanID
	spBackoff  telemetry.SpanID

	tel       *telemetry.Registry
	cReaps    *telemetry.Counter
	cRestarts *telemetry.Counter
	cFailures *telemetry.Counter
	cReverted *telemetry.Counter
	gBackoff  *telemetry.Gauge
	gHealthy  *telemetry.Gauge
}

// New builds a supervisor and its first session. A Builder error here is
// fatal (there is nothing to supervise yet).
func New(m *machine.Machine, host *machine.Process, build Builder, cfg Config) (*Supervisor, error) {
	sess, err := build()
	if err != nil {
		return nil, err
	}
	if cfg.BackoffMaxSeconds == 0 {
		cfg.BackoffMaxSeconds = 1.0
	}
	s := &Supervisor{
		m:     m,
		host:  host,
		build: build,
		cfg:   cfg,
		sess:  sess,
	}
	s.backoff = m.Cycles(backoffSeconds)
	s.tel = cfg.Telemetry
	s.cReaps = s.tel.Counter("supervise", "reaps_total", "dead runtimes reaped (EVT reverted)")
	s.cRestarts = s.tel.Counter("supervise", "restarts_total", "successful runtime re-attaches")
	s.cFailures = s.tel.Counter("supervise", "restart_failures_total", "session builder errors during recovery")
	s.cReverted = s.tel.Counter("supervise", "reverted_slots_total", "EVT slots pointed back at static code during recovery")
	s.gBackoff = s.tel.Gauge("supervise", "backoff_seconds", "next re-attach backoff delay")
	s.gHealthy = s.tel.Gauge("supervise", "healthy", "1 while a non-crashed session is live")
	s.gBackoff.Set(backoffSeconds)
	s.gHealthy.Set(1)
	return s, nil
}

// Runtime returns the live session's runtime, or nil while recovering.
func (s *Supervisor) Runtime() *core.Runtime {
	if s.sess == nil {
		return nil
	}
	return s.sess.Runtime
}

// Healthy reports whether a non-crashed session is live.
func (s *Supervisor) Healthy() bool {
	return s.sess != nil && !s.sess.Runtime.Crashed()
}

// Tick implements machine.Agent.
func (s *Supervisor) Tick(m *machine.Machine) {
	if s.sess != nil {
		rt := s.sess.Runtime
		if s.cfg.CrashFn != nil && !rt.Crashed() && s.cfg.CrashFn(m.Now()) {
			rt.Crash()
		}
		if !rt.Crashed() {
			rt.Tick(m)
			if s.sess.Policy != nil {
				s.sess.Policy.Tick(m)
			}
			return
		}
		s.reap(m)
		return
	}
	if m.Now() >= s.retryAt {
		s.restart(m)
	}
}

// Close shuts the current session's policy down (end of run, not a crash).
func (s *Supervisor) Close() {
	if s.sess != nil && s.sess.Close != nil {
		s.sess.Close()
	}
}

// reap executes the safety guarantee after a crash: stop the policy, point
// every EVT slot back at static code, and schedule a re-attach.
func (s *Supervisor) reap(m *machine.Machine) {
	s.cReaps.Inc()
	if s.sess.Close != nil {
		s.sess.Close()
	}
	reverted := RevertToStatic(s.host)
	s.cReverted.Add(uint64(reverted))
	// A session that lived long enough proves the crash isn't a loop;
	// start the next backoff sequence fresh.
	if m.Now()-s.sessionStart >= m.Cycles(backoffResetSeconds) {
		s.backoff = m.Cycles(backoffSeconds)
	}
	s.sess = nil
	s.retryAt = m.Now() + s.backoff
	backoffSec := float64(s.backoff) / m.Config().FreqHz
	s.gHealthy.Set(0)
	s.spRecovery = s.tel.StartSpan("supervise.recovery", m.Now(), 0)
	s.tel.SpanAttrs(s.spRecovery, telemetry.Num("reverted_slots", float64(reverted)))
	s.spBackoff = s.tel.StartSpan("supervise.backoff", m.Now(), s.spRecovery)
	s.tel.SpanAttrs(s.spBackoff, telemetry.Num("backoff_s", backoffSec))
	s.tel.Emit(telemetry.Event{
		At: m.Now(), Kind: telemetry.EvReap,
		Value: float64(reverted), Detail: telemetry.FormatFloat(backoffSec),
	})
	s.bumpBackoff(m)
}

func (s *Supervisor) restart(m *machine.Machine) {
	s.tel.EndSpan(s.spBackoff, m.Now())
	sess, err := s.build()
	if err != nil {
		s.cFailures.Inc()
		s.retryAt = m.Now() + s.backoff
		sp := s.tel.StartSpan("supervise.restart", m.Now(), s.spRecovery)
		s.tel.SpanAttrs(sp, telemetry.Str("error", err.Error()))
		s.tel.EndSpan(sp, m.Now())
		s.spBackoff = s.tel.StartSpan("supervise.backoff", m.Now(), s.spRecovery)
		s.tel.SpanAttrs(s.spBackoff, telemetry.Num("backoff_s", float64(s.backoff)/m.Config().FreqHz))
		s.bumpBackoff(m)
		return
	}
	s.sess = sess
	s.sessionStart = m.Now()
	s.restarts++
	s.cRestarts.Inc()
	s.gHealthy.Set(1)
	s.tel.Emit(telemetry.Event{
		At: m.Now(), Kind: telemetry.EvReattach, Value: float64(s.restarts),
	})
	sp := s.tel.StartSpan("supervise.restart", m.Now(), s.spRecovery)
	s.tel.SpanAttrs(sp, telemetry.Num("restart", float64(s.restarts)))
	s.tel.EndSpan(sp, m.Now())
	s.tel.EndSpan(s.spRecovery, m.Now())
	s.spRecovery, s.spBackoff = 0, 0
}

func (s *Supervisor) bumpBackoff(m *machine.Machine) {
	s.backoff *= 2
	if max := m.Cycles(s.cfg.BackoffMaxSeconds); s.backoff > max {
		s.backoff = max
	}
	s.gBackoff.Set(float64(s.backoff) / m.Config().FreqHz)
}

// RevertToStatic points every EVT slot of host at its original static
// entry, returning how many slots actually changed. This is the paper's
// safety guarantee made concrete: it needs no cooperation from the (dead)
// runtime, because both the EVT and the original code live in the host's
// address space.
func RevertToStatic(host *machine.Process) int {
	evt := host.EVT()
	prog := host.Binary().Program
	n := 0
	for slot := 0; slot < evt.Len(); slot++ {
		fi, ok := prog.FuncByName(evt.Callee(slot))
		if !ok {
			continue
		}
		if evt.Target(slot) != fi.Entry {
			evt.SetTarget(slot, fi.Entry)
			n++
		}
	}
	return n
}

// AllStatic reports whether every EVT slot points at original static code.
func AllStatic(host *machine.Process) bool {
	evt := host.EVT()
	prog := host.Binary().Program
	for slot := 0; slot < evt.Len(); slot++ {
		fi, ok := prog.FuncByName(evt.Callee(slot))
		if ok && evt.Target(slot) != fi.Entry {
			return false
		}
	}
	return true
}
