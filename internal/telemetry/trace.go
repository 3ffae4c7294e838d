package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// EventKind names one entry of the event taxonomy (DESIGN.md §7). Kinds are
// stable strings so JSONL traces are self-describing.
type EventKind string

// The event taxonomy. Every observable state transition of the system maps
// to exactly one kind; emitters stamp events with simulated cycles.
const (
	// EvCompileStart: a compile job was queued (core.RequestVariant).
	// Func = function, Value = job sequence number.
	EvCompileStart EventKind = "compile_start"
	// EvCompileFinish: a compile job produced an installed variant.
	// Func = function, Value = variant ID.
	EvCompileFinish EventKind = "compile_finish"
	// EvCompileFail: a compile job failed. Func = function, Detail = error.
	EvCompileFail EventKind = "compile_fail"
	// EvDispatch: an EVT slot was rewritten to a variant. Func = function,
	// Value = variant ID.
	EvDispatch EventKind = "dispatch"
	// EvRevert: an EVT slot was pointed back at original static code.
	// Func = function.
	EvRevert EventKind = "revert"
	// EvRuntimeCrash: the protean runtime process died (core.Crash).
	EvRuntimeCrash EventKind = "runtime_crash"
	// EvNap: a nap-state transition. Core = napping core, Value = new
	// intensity, Detail carries the old intensity.
	EvNap EventKind = "nap"
	// EvQoSViolation: a steady-state QoS reading fell below target.
	// Value = the reading.
	EvQoSViolation EventKind = "qos_violation"
	// EvSensorDropout: a QoS reading was discarded as missing or corrupted.
	EvSensorDropout EventKind = "sensor_dropout"
	// EvReap: the supervisor observed a dead runtime and reverted the EVT.
	// Value = slots reverted, Detail = next backoff seconds.
	EvReap EventKind = "supervisor_reap"
	// EvReattach: the supervisor re-attached a fresh runtime session.
	// Value = restart count.
	EvReattach EventKind = "supervisor_reattach"
	// EvServerCrash: a whole simulated server failed (fleet chaos).
	EvServerCrash EventKind = "server_crash"
	// EvReplacement: a re-placed batch instance arrived on this server.
	// Func = app name.
	EvReplacement EventKind = "replacement"
	// EvContended: the contention detector flipped this server's verdict.
	// Value = 1 entering the contended set, 0 leaving it.
	EvContended EventKind = "contended"
	// EvMigration: a live batch migration touched this server. Func = app
	// name, Value = the peer server index, Detail = "out" (instance
	// evicted from here) or "in" (instance landed here after blackout).
	EvMigration EventKind = "migration"
	// EvMoveFailed: a live migration failed. Func = app name, Value = the
	// peer server index, Detail = stage ("detach" for a move that aborted
	// before leaving the source, "rollback" for one whose landing attempts
	// all failed and returned to the source).
	EvMoveFailed EventKind = "move_failed"
	// EvBreaker: the migration circuit breaker changed state. Value = the
	// new state (0 closed, 1 half-open, 2 open), Detail = the cause
	// ("failures", "corrupt", "probe-ok", "probe-fail", "cooldown").
	EvBreaker EventKind = "breaker"
)

// Event is one structured trace entry. At is simulated cycles on the
// emitting machine's clock; Server is stamped during fleet rollup
// (MergeFrom) and 0 for standalone machines.
type Event struct {
	At     uint64
	Kind   EventKind
	Server int
	Core   int
	Func   string
	Value  float64
	Detail string

	// seq orders events emitted at the same cycle on the same machine.
	seq uint64
}

// traceBuf is a bounded append-only ring: when full, the oldest events are
// dropped (deterministically — drops depend only on emit order).
type traceBuf struct {
	cap     int
	events_ []Event
	start   int // ring head when wrapped
	seq     uint64
	dropped uint64
}

func newTraceBuf(cap int) *traceBuf {
	return &traceBuf{cap: cap}
}

func (t *traceBuf) emit(e Event) {
	e.seq = t.seq
	t.seq++
	if len(t.events_) < t.cap {
		t.events_ = append(t.events_, e)
		return
	}
	t.events_[t.start] = e
	t.start = (t.start + 1) % t.cap
	t.dropped++
}

// events returns the buffered events oldest-first.
func (t *traceBuf) events() []Event {
	out := make([]Event, 0, len(t.events_))
	out = append(out, t.events_[t.start:]...)
	out = append(out, t.events_[:t.start]...)
	return out
}

// Emit records one event. No-op on a nil registry or when tracing is
// disabled (TraceCap < 0). The caller stamps At with simulated time.
func (r *Registry) Emit(e Event) {
	if r == nil || r.trace == nil {
		return
	}
	r.trace.emit(e)
}

// TraceEnabled reports whether Emit records anything — lets emitters skip
// building expensive Detail strings.
func (r *Registry) TraceEnabled() bool {
	return r != nil && r.trace != nil
}

// Events returns the trace sorted by (At, Server, emit order) — the
// canonical deterministic order for rendering and export. Returns nil on a
// nil registry or when tracing is disabled.
func (r *Registry) Events() []Event {
	if r == nil || r.trace == nil {
		return nil
	}
	ev := r.trace.events()
	sort.SliceStable(ev, func(i, j int) bool {
		if ev[i].At != ev[j].At {
			return ev[i].At < ev[j].At
		}
		if ev[i].Server != ev[j].Server {
			return ev[i].Server < ev[j].Server
		}
		return ev[i].seq < ev[j].seq
	})
	return ev
}

// EventsTail returns the last n events in canonical order (all of them when
// n exceeds the buffer). The flight recorder uses this to freeze the trace
// tail into postmortem bundles without copying the whole ring.
func (r *Registry) EventsTail(n int) []Event {
	ev := r.Events()
	if n <= 0 || len(ev) <= n {
		return ev
	}
	return ev[len(ev)-n:]
}

// DroppedEvents reports how many events the bounded buffer discarded.
func (r *Registry) DroppedEvents() uint64 {
	if r == nil || r.trace == nil {
		return 0
	}
	return r.trace.dropped
}

// JSONString formats under any verb as a JSON string literal, quotes
// included: the one quoter every hand-built JSON export uses. Unlike %q it
// never emits \x escapes — a control byte becomes \u00XX and invalid UTF-8
// becomes U+FFFD — so any string survives a JSON parser; printable ASCII
// renders exactly as %q renders it. It writes straight into the printer,
// so quoting costs no allocation beyond the argument's own.
type JSONString string

// Format implements fmt.Formatter.
func (s JSONString) Format(f fmt.State, _ rune) {
	io.WriteString(f, `"`)
	done := 0
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(string(s[i:]))
		esc := ""
		switch {
		case c == '"':
			esc = `\"`
		case c == '\\':
			esc = `\\`
		case c == '\n':
			esc = `\n`
		case c == '\t':
			esc = `\t`
		case c == '\r':
			esc = `\r`
		case c < 0x20:
			esc = fmt.Sprintf(`\u%04x`, c)
		case c == utf8.RuneError && size == 1:
			esc = string(utf8.RuneError)
		}
		if esc != "" {
			io.WriteString(f, string(s[done:i]))
			io.WriteString(f, esc)
			done = i + size
		}
		i += size
	}
	io.WriteString(f, string(s[done:]))
	io.WriteString(f, `"`)
}

// WriteJSONL writes the trace as one JSON object per line, in canonical
// order. Fields are emitted in a fixed order with empty strings omitted, so
// identical traces produce identical bytes.
func (r *Registry) WriteJSONL(w io.Writer) error {
	for _, e := range r.Events() {
		var b strings.Builder
		fmt.Fprintf(&b, `{"at":%d,"kind":%s,"server":%d,"core":%d`, e.At, JSONString(e.Kind), e.Server, e.Core)
		if e.Func != "" {
			fmt.Fprintf(&b, `,"func":%s`, JSONString(e.Func))
		}
		if e.Value != 0 {
			fmt.Fprintf(&b, `,"value":%s`, fmtFloat(e.Value))
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, `,"detail":%s`, JSONString(e.Detail))
		}
		b.WriteString("}\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
