package slo

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/telemetry"
)

// Section is one named snapshot inside a postmortem bundle. JSON holds the
// section body pre-rendered by its owning subsystem (tsdb window, trace
// tail, contend status, audit report...) so the bundle embeds it verbatim —
// determinism is inherited from the section writers.
type Section struct {
	Name string
	JSON string
}

// Bundle is one frozen postmortem: everything the fleet knew at the epoch
// barrier where an alert fired or the auditor flagged a violation.
type Bundle struct {
	Seq      int // 1-based capture order
	Reason   string
	Epoch    int
	T        float64
	Sections []Section
}

// WriteJSON renders the bundle as one deterministic JSON document. Section
// bodies are embedded raw, in capture order.
func (b *Bundle) WriteJSON(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("{\n")
	fmt.Fprintf(&sb, `  "seq": %d,`+"\n", b.Seq)
	fmt.Fprintf(&sb, `  "reason": %s,`+"\n", telemetry.JSONString(b.Reason))
	fmt.Fprintf(&sb, `  "epoch": %d,`+"\n", b.Epoch)
	fmt.Fprintf(&sb, `  "t_seconds": %s,`+"\n", telemetry.FormatFloat(b.T))
	sb.WriteString(`  "sections": {`)
	for i, s := range b.Sections {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "\n  %s: ", telemetry.JSONString(s.Name))
		sb.WriteString(strings.TrimRight(s.JSON, "\n"))
	}
	sb.WriteString("\n  }\n}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// JSON renders WriteJSON to a string.
func (b *Bundle) JSON() string {
	var sb strings.Builder
	b.WriteJSON(&sb) //nolint:errcheck // strings.Builder never errors
	return sb.String()
}

// DefaultRecorderCap bounds the recorder when the configured cap is 0.
const DefaultRecorderCap = 16

// Recorder is the flight recorder: a bounded store of postmortem bundles.
// Like the span store it drops the NEWEST captures when full — the first
// incidents of a run are the ones worth keeping, and drop-newest is
// trivially deterministic. Single-writer (the epoch coordinator).
type Recorder struct {
	cap     int
	bundles []*Bundle
	seq     int
}

// NewRecorder builds a recorder holding at most cap bundles (0 → default).
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultRecorderCap
	}
	return &Recorder{cap: cap}
}

// Capture freezes one bundle. Returns nil when the recorder is full.
func (r *Recorder) Capture(reason string, epoch int, t float64, sections []Section) *Bundle {
	r.seq++
	if len(r.bundles) >= r.cap {
		return nil
	}
	b := &Bundle{Seq: r.seq, Reason: reason, Epoch: epoch, T: t, Sections: sections}
	r.bundles = append(r.bundles, b)
	return b
}

// Bundles returns the captured bundles in capture order.
func (r *Recorder) Bundles() []*Bundle {
	return append([]*Bundle(nil), r.bundles...)
}
