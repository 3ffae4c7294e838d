// Publication: everything the coordinator shows the outside world — the
// -serve endpoints while the run is in flight, the post-run exporters, the
// postmortem bundles' own sections — goes through one snapshot and one
// table of JSON exports.
package fleet

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/slo"
)

// published is the coordinator's state as readers see it. A snapshot is
// immutable once stored: the coordinator — the only writer — replaces it
// whole at each barrier, so a reader on any goroutine loads one coherent
// view without a lock. The logs inside (moves, audit epochs, violations)
// are prefixes of the coordinator's append-only working copies; nothing
// reachable from a snapshot is ever written again, and callers handed one
// by the accessors below must not modify it either.
type published struct {
	contend *ContendStatus
	audit   *AuditReport
	// slo and alerts are the SLO engine's rendered status and alert log
	// ("" until it publishes).
	slo, alerts string
	bundles     []*slo.Bundle
}

// latest returns the current snapshot (empty before the first barrier).
func (f *Fleet) latest() *published {
	if p := f.pub.Load(); p != nil {
		return p
	}
	return &published{}
}

// publish replaces the snapshot with an updated copy. Coordinator only.
func (f *Fleet) publish(update func(*published)) {
	p := *f.latest()
	update(&p)
	f.pub.Store(&p)
}

// exports is the table of the coordinator's JSON exports. The -serve
// endpoint /<name>, Fleet.WriteExport and the postmortem bundles' sections
// all render through it. empty is the body until the coordinator first
// publishes the export (for good, when its feature is off).
var exports = []struct {
	name, empty string
	render      func(*published) string
}{
	{"contend", "{\"epoch\": 0}\n", func(p *published) string {
		if p.contend == nil {
			return ""
		}
		return render(p.contend.WriteJSON)
	}},
	{"audit", "{\"epochs_checked\": 0}\n", func(p *published) string {
		if p.audit == nil {
			return ""
		}
		return render(p.audit.WriteJSON)
	}},
	{"slo", "{\"epoch\": 0}\n", func(p *published) string { return p.slo }},
	{"alerts", "{\"fired\": 0}\n", func(p *published) string { return p.alerts }},
	{"postmortem", "[]\n", func(p *published) string {
		if len(p.bundles) == 0 {
			return ""
		}
		docs := make([]string, len(p.bundles))
		for i, b := range p.bundles {
			docs[i] = b.JSON()
		}
		return "[\n" + strings.Join(docs, ",\n") + "\n]\n"
	}},
}

// render collects a WriteJSON-style writer's output.
func render(write func(io.Writer) error) string {
	var b strings.Builder
	write(&b) //nolint:errcheck // strings.Builder never errors
	return b.String()
}

// WriteExport writes one of the coordinator's JSON exports — "contend",
// "audit", "slo", "alerts" or "postmortem" — as last published, or its
// placeholder body when nothing has been. Safe from any goroutine, during
// and after Run.
func (f *Fleet) WriteExport(name string, w io.Writer) error {
	for _, ex := range exports {
		if ex.name != name {
			continue
		}
		body := ex.render(f.latest())
		if body == "" {
			body = ex.empty
		}
		_, err := io.WriteString(w, body)
		return err
	}
	return fmt.Errorf("fleet: unknown export %q", name)
}

// ContendStatus returns the migration control loop's latest published
// snapshot (nil before the first decision epoch, or when migration is
// off). Safe to call from any goroutine; the snapshot is shared, read-only.
func (f *Fleet) ContendStatus() *ContendStatus { return f.latest().contend }

// AuditReport returns the conservation auditor's latest published report
// (nil before the first decision epoch, or when migration is off). Safe to
// call from any goroutine; the snapshot is shared, read-only.
func (f *Fleet) AuditReport() *AuditReport { return f.latest().audit }

// AlertLogJSON returns the latest published alert log ("" before the first
// barrier, or with SLO off). Safe from any goroutine.
func (f *Fleet) AlertLogJSON() string { return f.latest().alerts }

// Postmortems returns the flight recorder's frozen bundles (capture order).
// Safe from any goroutine; the slice is shared, read-only.
func (f *Fleet) Postmortems() []*slo.Bundle { return f.latest().bundles }
