package harness

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// FigureSpans is the span-nested variant of the activity timeline: instead
// of bucketing point events, it renders the causal span trees the PC3D
// trace experiment records — one row per root operation (a pc3d.search or
// a supervise.recovery) with its child count, depth, and critical path, so
// the table answers "where did each transformation's wall time go" the way
// the Chrome trace does visually.
func (r *Runner) FigureSpans() (*Table, error) {
	run, err := r.trace(SystemPC3D)
	if err != nil {
		return nil, err
	}
	reg, freq := run.reg, run.freqHz

	spans := reg.Spans()
	if len(spans) == 0 {
		return nil, fmt.Errorf("harness: trace experiment recorded no spans")
	}
	children := make(map[telemetry.SpanID][]telemetry.Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var depthOf func(id telemetry.SpanID) int
	depthOf = func(id telemetry.SpanID) int {
		d := 0
		for _, k := range children[id] {
			if kd := 1 + depthOf(k.ID); kd > d {
				d = kd
			}
		}
		return d
	}
	countOf := func(id telemetry.SpanID) int {
		n := 0
		var walk func(telemetry.SpanID)
		walk = func(id telemetry.SpanID) {
			for _, k := range children[id] {
				n++
				walk(k.ID)
			}
		}
		walk(id)
		return n
	}

	t := &Table{
		ID:    "Figure S (spans)",
		Title: "Causal span trees from the PC3D trace experiment (libquantum with web-search, fluctuating load)",
		Columns: []string{
			"t(s)", "Root", "Dur(ms)", "Spans", "Depth", "Critical path",
		},
	}
	roots := 0
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		roots++
		dur := "open"
		if s.End != 0 {
			dur = fmt.Sprintf("%.1f", float64(s.Duration())/freq*1000)
		}
		path := reg.CriticalPath(s.ID)
		names := make([]string, len(path))
		for i, p := range path {
			names[i] = p.Name
		}
		t.AddRow(
			fmt.Sprintf("%.2f", float64(s.Start)/freq),
			s.Name, dur, countOf(s.ID), depthOf(s.ID),
			strings.Join(names, " > "),
		)
	}
	if roots == 0 {
		return nil, fmt.Errorf("harness: no root spans in trace")
	}
	t.Notes = append(t.Notes,
		"each root is one end-to-end operation; Spans counts its whole tree, Depth its nesting",
		"the critical path follows the longest-duration child at every level — the stage that bounds the operation's latency",
		"the same trees export as Chrome trace-event JSON (pcrun -spans / fleet -spans) for Perfetto")
	if d := reg.DroppedSpans(); d > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("span store overflowed: %d newest spans dropped", d))
	}
	return t, nil
}
