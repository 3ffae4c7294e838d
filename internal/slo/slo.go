// Package slo turns the raw telemetry plane into judgments: declarative
// service-level objectives evaluated as multi-window multi-burn-rate rules
// (the Google SRE workbook construction) over tsdb series, with a full
// alert lifecycle — inactive → pending → firing → resolved — and hysteresis
// so alerts never flap.
//
// A spec names two cumulative counter series, Good and Total. The error
// ratio over a trailing window of epochs is 1 − ΔGood/ΔTotal; the burn rate
// is that ratio divided by the error budget (1 − Objective). A rule
// triggers when BOTH its long and short windows burn faster than its
// threshold: the long window rejects transient blips, the short window
// makes the alert reset quickly once the incident ends. A naive static
// threshold is the degenerate spec with one 1-epoch window and a long
// pending period — the figslo artifact measures exactly how much detection
// latency that costs.
//
// Everything here is deterministic: evaluation happens at fleet epoch
// barriers on simulated time, specs evaluate in declaration order, and all
// exports are hand-built JSON with telemetry.FormatFloat.
package slo

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// BurnRule is one multi-window burn-rate condition.
type BurnRule struct {
	// LongEpochs and ShortEpochs are the two trailing windows, in decision
	// epochs. ShortEpochs defaults to max(1, LongEpochs/12) — the workbook's
	// 1/12 ratio.
	LongEpochs  int
	ShortEpochs int
	// Burn is the threshold burn-rate multiple (e.g. 14 on a 1h window in
	// the workbook; scaled-down fleets use smaller windows, same idea).
	Burn float64
	// Severity labels transitions this rule causes ("page", "ticket").
	Severity string
}

// Spec is one declarative SLO.
type Spec struct {
	Name string
	// Good and Total are tsdb series names of cumulative counters.
	Good  string
	Total string
	// Objective is the target good/total ratio in (0, 1]; the error budget is
	// 1 − Objective.
	Objective float64
	Rules     []BurnRule
	// PendingEpochs is how many consecutive triggering epochs are required
	// before the alert fires (default 1: fire on the second consecutive
	// trigger — one epoch pending, then firing).
	PendingEpochs int
	// ResolveEpochs is how many consecutive clear epochs are required
	// before a firing alert resolves (default 2) — the flap hysteresis.
	ResolveEpochs int
}

func (s Spec) withDefaults() Spec {
	if s.PendingEpochs <= 0 {
		s.PendingEpochs = 1
	}
	if s.ResolveEpochs <= 0 {
		s.ResolveEpochs = 2
	}
	// The caller's rules share this backing array: default a copy.
	s.Rules = slices.Clone(s.Rules)
	for i, r := range s.Rules {
		if r.ShortEpochs <= 0 {
			s.Rules[i].ShortEpochs = max(1, r.LongEpochs/12)
		}
	}
	return s
}

// State is the alert lifecycle state of one spec.
type State int

const (
	Inactive State = iota
	Pending
	Firing
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Firing:
		return "firing"
	default:
		return "inactive"
	}
}

// Transition is one alert lifecycle edge. To is "pending", "firing", or
// "resolved" (the resolved edge returns the state to inactive).
type Transition struct {
	Epoch    int
	T        float64
	Spec     string
	From, To string
	Severity string
	// Burn is the long-window burn rate of the triggering rule (last
	// observed burn for resolve edges).
	Burn float64
	// Rule is the index of the triggering rule (-1 for resolve edges).
	Rule int
}

type specState struct {
	state      State
	pendingFor int // consecutive triggering epochs
	clearFor   int // consecutive clear epochs while firing
	sinceEpoch int // epoch the current state was entered
	lastBurn   float64
	lastRule   int
	fired      int // lifetime count of pending→firing edges
}

// Engine evaluates a fixed set of specs against a tsdb store. Single-writer
// like the store: only the epoch coordinator calls Evaluate.
type Engine struct {
	db        *tsdb.Store
	specs     []Spec
	states    []specState
	log       []Transition
	lastEpoch int
	lastT     float64
	resolved  int
}

// NewEngine builds an engine; specs evaluate in the order given.
func NewEngine(db *tsdb.Store, specs []Spec) *Engine {
	e := &Engine{db: db, specs: make([]Spec, len(specs)), states: make([]specState, len(specs))}
	for i, s := range specs {
		e.specs[i] = s.withDefaults()
		e.states[i].lastRule = -1
	}
	return e
}

// burnRate returns the burn rate over a trailing window, and whether the
// window is evaluable. A window is evaluable only when fully covered: the
// series has a point at epoch−window, or the window starts exactly at the
// run's origin (epoch−window == 0, where tsdb's implicit zero origin is
// exact for cumulative counters). Until a long window has fully filled, its
// rule cannot trigger — otherwise a startup blip would see the long window
// truncated to a short one and fire through the noise guard.
func (e *Engine) burnRate(s Spec, epoch, window int) (float64, bool) {
	if epoch-window < 0 {
		return 0, false
	}
	if epoch-window > 0 && len(e.db.Range(s.Total, epoch-window, epoch-window)) == 0 {
		return 0, false
	}
	good, ok1 := e.db.Delta(s.Good, epoch, window)
	total, ok2 := e.db.Delta(s.Total, epoch, window)
	if !ok1 || !ok2 || total <= 0 {
		return 0, false
	}
	errRatio := 1 - good/total
	if errRatio < 0 {
		errRatio = 0
	}
	budget := 1 - s.Objective
	if budget <= 0 {
		budget = 1e-9 // objective 1.0: any error is an infinite burn
	}
	return errRatio / budget, true
}

// Evaluate advances every spec's state machine at one epoch barrier and
// returns the transitions that occurred, in spec order. Call once per
// epoch, in epoch order.
func (e *Engine) Evaluate(epoch int, t float64) []Transition {
	e.lastEpoch, e.lastT = epoch, t
	var out []Transition
	emit := func(i int, from, to, sev string, burn float64, rule int) {
		tr := Transition{Epoch: epoch, T: t, Spec: e.specs[i].Name,
			From: from, To: to, Severity: sev, Burn: burn, Rule: rule}
		e.log = append(e.log, tr)
		out = append(out, tr)
	}
	for i := range e.specs {
		s := e.specs[i]
		st := &e.states[i]
		trigRule, trigBurn := -1, 0.0
		maxBurn := 0.0
		for ri, r := range s.Rules {
			long, okL := e.burnRate(s, epoch, r.LongEpochs)
			short, okS := e.burnRate(s, epoch, r.ShortEpochs)
			if okL && long > maxBurn {
				maxBurn = long
			}
			if okL && okS && long >= r.Burn && short >= r.Burn && trigRule < 0 {
				trigRule, trigBurn = ri, long
			}
		}
		st.lastBurn = maxBurn
		sev := ""
		if trigRule >= 0 {
			sev = s.Rules[trigRule].Severity
			st.lastRule = trigRule
		}
		switch st.state {
		case Inactive:
			if trigRule >= 0 {
				st.state, st.sinceEpoch, st.pendingFor = Pending, epoch, 1
				emit(i, "inactive", "pending", sev, trigBurn, trigRule)
				if st.pendingFor >= s.PendingEpochs {
					st.state, st.sinceEpoch = Firing, epoch
					st.fired++
					emit(i, "pending", "firing", sev, trigBurn, trigRule)
				}
			}
		case Pending:
			if trigRule >= 0 {
				st.pendingFor++
				if st.pendingFor >= s.PendingEpochs {
					st.state, st.sinceEpoch = Firing, epoch
					st.fired++
					emit(i, "pending", "firing", sev, trigBurn, trigRule)
				}
			} else {
				st.state, st.sinceEpoch, st.pendingFor = Inactive, epoch, 0
				emit(i, "pending", "inactive", "", maxBurn, -1)
			}
		case Firing:
			if trigRule >= 0 {
				st.clearFor = 0
			} else {
				st.clearFor++
				if st.clearFor >= s.ResolveEpochs {
					st.state, st.sinceEpoch = Inactive, epoch
					st.pendingFor, st.clearFor = 0, 0
					e.resolved++
					emit(i, "firing", "resolved", "", maxBurn, -1)
				}
			}
		}
	}
	return out
}

// Firing reports whether the named spec is currently firing.
func (e *Engine) Firing(name string) bool {
	for i, s := range e.specs {
		if s.Name == name {
			return e.states[i].state == Firing
		}
	}
	return false
}

// Fired returns the lifetime count of firing edges across all specs.
func (e *Engine) Fired() int {
	n := 0
	for i := range e.states {
		n += e.states[i].fired
	}
	return n
}

// Log returns the full transition log in evaluation order.
func (e *Engine) Log() AlertLog {
	return AlertLog{Transitions: append([]Transition(nil), e.log...),
		Fired: e.Fired(), Resolved: e.resolved}
}

// AlertLog is the exportable alert history.
type AlertLog struct {
	Transitions []Transition
	Fired       int
	Resolved    int
}

// WriteJSON exports the log deterministically: fixed field order, entries
// in evaluation order, floats via telemetry.FormatFloat.
func (l AlertLog) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, `  "fired": %d,`+"\n", l.Fired)
	fmt.Fprintf(&b, `  "resolved": %d,`+"\n", l.Resolved)
	b.WriteString(`  "transitions": [`)
	for i, tr := range l.Transitions {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    {\"epoch\": %d, \"t_seconds\": %s, \"spec\": %s, \"from\": %s, \"to\": %s, \"severity\": %s, \"burn\": %s, \"rule\": %d}",
			tr.Epoch, telemetry.FormatFloat(tr.T), telemetry.JSONString(tr.Spec),
			telemetry.JSONString(tr.From), telemetry.JSONString(tr.To),
			telemetry.JSONString(tr.Severity), telemetry.FormatFloat(tr.Burn), tr.Rule)
	}
	b.WriteString("\n  ]\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// JSON renders WriteJSON to a string.
func (l AlertLog) JSON() string {
	var b strings.Builder
	l.WriteJSON(&b) //nolint:errcheck // strings.Builder never errors
	return b.String()
}

// WriteStatusJSON exports the engine's current per-spec states — the /slo
// endpoint body. Specs render in declaration order.
func (e *Engine) WriteStatusJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, `  "epoch": %d,`+"\n", e.lastEpoch)
	fmt.Fprintf(&b, `  "t_seconds": %s,`+"\n", telemetry.FormatFloat(e.lastT))
	b.WriteString(`  "specs": [`)
	for i, s := range e.specs {
		st := e.states[i]
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    {\"name\": %s, \"objective\": %s, \"state\": %s, \"since_epoch\": %d, \"burn\": %s, \"fired\": %d}",
			telemetry.JSONString(s.Name), telemetry.FormatFloat(s.Objective), telemetry.JSONString(st.state.String()),
			st.sinceEpoch, telemetry.FormatFloat(st.lastBurn), st.fired)
	}
	b.WriteString("\n  ]\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// StatusJSON renders WriteStatusJSON to a string.
func (e *Engine) StatusJSON() string {
	var b strings.Builder
	e.WriteStatusJSON(&b) //nolint:errcheck // strings.Builder never errors
	return b.String()
}
