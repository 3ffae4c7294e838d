// Package phase identifies execution phases and phase changes from the
// monitoring signals (Section III-B-3): hot-code vectors from PC samples
// plus progress rates from hardware performance monitors.
//
// A phase is summarized by a Signature. A Detector compares successive
// signatures and reports a phase change when they diverge past a threshold.
// Co-phases — "the combination of the currently running phases among a
// program and its co-runners" — are tracked by keeping one Detector per
// program and combining change events.
package phase

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Signature summarizes one observation window of one program.
type Signature struct {
	// Hot is the normalized PC-sample distribution over functions.
	Hot map[string]float64
	// Rate is a progress metric (IPC or BPC, or normalized load for an
	// external service).
	Rate float64
}

// Distance returns a dissimilarity in [0, ~2]: half the L1 distance of the
// hot vectors (in [0,1]) plus the relative rate difference (capped at 1).
func Distance(a, b Signature) float64 {
	var l1 float64
	seen := make(map[string]bool, len(a.Hot)+len(b.Hot))
	for f := range a.Hot {
		seen[f] = true
	}
	for f := range b.Hot {
		seen[f] = true
	}
	for f := range seen {
		l1 += math.Abs(a.Hot[f] - b.Hot[f])
	}
	hotDist := l1 / 2

	var rateDist float64
	hi := math.Max(math.Abs(a.Rate), math.Abs(b.Rate))
	if hi > 0 {
		rateDist = math.Abs(a.Rate-b.Rate) / hi
		if rateDist > 1 {
			rateDist = 1
		}
	}
	return hotDist + rateDist
}

// String renders the signature's top functions for logs.
func (s Signature) String() string {
	type kv struct {
		k string
		v float64
	}
	var fns []kv
	for k, v := range s.Hot {
		fns = append(fns, kv{k, v})
	}
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].v != fns[j].v {
			return fns[i].v > fns[j].v
		}
		return fns[i].k < fns[j].k
	})
	var b strings.Builder
	fmt.Fprintf(&b, "rate=%.3g hot=[", s.Rate)
	for i, f := range fns {
		if i >= 3 {
			b.WriteString("…")
			break
		}
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s:%.0f%%", f.k, f.v*100)
	}
	b.WriteString("]")
	return b.String()
}

// threshold is the Distance above which a new signature is a new phase. It
// tolerates sampling noise while catching hot-region shifts and large load
// swings.
const threshold = 0.35

// Detector reports phase changes over a stream of signatures.
type Detector struct {
	current  Signature
	hasPhase bool
}

// NewDetector builds a detector.
func NewDetector() *Detector { return &Detector{} }

// Observe feeds one signature and reports whether it starts a new phase.
// The first observation always starts a phase.
func (d *Detector) Observe(sig Signature) bool {
	if !d.hasPhase {
		d.current = sig
		d.hasPhase = true
		return true
	}
	if Distance(d.current, sig) > threshold {
		d.current = sig
		return true
	}
	// Drift the current signature toward the observation so slow trends
	// do not eventually trip the detector spuriously.
	d.current = blend(d.current, sig, 0.3)
	return false
}

func blend(a, b Signature, w float64) Signature {
	out := Signature{Hot: make(map[string]float64, len(a.Hot)), Rate: a.Rate*(1-w) + b.Rate*w}
	for f, v := range a.Hot {
		out.Hot[f] = v * (1 - w)
	}
	for f, v := range b.Hot {
		out.Hot[f] += v * w
	}
	return out
}

// CoPhase aggregates per-program detectors into the co-phase abstraction:
// a change in any member is a co-phase change.
type CoPhase struct {
	detectors map[string]*Detector
}

// NewCoPhase builds an empty co-phase tracker.
func NewCoPhase() *CoPhase {
	return &CoPhase{detectors: make(map[string]*Detector)}
}

// Observe feeds program name's signature; it reports whether the co-phase
// changed. Unknown names get a fresh detector (first observation = change).
func (c *CoPhase) Observe(name string, sig Signature) bool {
	d := c.detectors[name]
	if d == nil {
		d = NewDetector()
		c.detectors[name] = d
	}
	return d.Observe(sig)
}
