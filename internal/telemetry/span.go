package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// SpanID identifies a span within a registry; 0 means "no span" and is the
// parent of every root. IDs are assigned sequentially by StartSpan and
// remapped to (server+1)<<32|local during fleet rollup, so merged IDs are
// a pure function of (server, local sequence) — never of wall clock or
// worker interleaving.
type SpanID uint64

// Attr is one typed span attribute (string or number).
type Attr struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Str: v} }

// Num builds a numeric attribute.
func Num(k string, v float64) Attr { return Attr{Key: k, Num: v, IsNum: true} }

// Span is one node of a causal span tree: a named interval of simulated
// time with a parent link. Subsystems record multi-stage operations
// (compile→dispatch→settle→measure, reap→backoff→re-attach) as span trees
// layered on the point-event trace.
type Span struct {
	ID     SpanID
	Parent SpanID
	// Name is "subsystem.operation" (e.g. "pc3d.search"); the part before
	// the first dot becomes the Chrome trace category.
	Name string
	// Server is stamped during fleet rollup (MergeFrom); 0 standalone.
	Server int
	// Start and End are simulated cycles; End == 0 marks a span still open
	// when the registry was exported.
	Start uint64
	End   uint64
	Attrs []Attr
}

// Duration returns End-Start (0 for open spans).
func (s Span) Duration() uint64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// spanBuf is a bounded span store. Unlike the event ring it drops the
// newest spans when full (a dropped parent would orphan retained
// children); drops are deterministic and counted.
type spanBuf struct {
	cap     int
	spans   []Span
	byID    map[SpanID]int
	dropped uint64
	ambient SpanID // see SetSpanParent
}

func newSpanBuf(cap int) *spanBuf {
	return &spanBuf{cap: cap, byID: make(map[SpanID]int)}
}

func (b *spanBuf) insert(s Span) bool {
	if len(b.spans) >= b.cap {
		b.dropped++
		return false
	}
	b.byID[s.ID] = len(b.spans)
	b.spans = append(b.spans, s)
	return true
}

// DefaultSpanCap is the span-store bound used when Config.SpanCap is 0.
const DefaultSpanCap = 8192

// StartSpan opens a span at simulated cycle at under parent (0 for a
// root). Returns 0 (a safe no-op ID) on a nil registry, when spans are
// disabled, or when the bounded store is full.
func (r *Registry) StartSpan(name string, at uint64, parent SpanID) SpanID {
	if r == nil || r.spans == nil {
		return 0
	}
	id := SpanID(len(r.spans.spans) + 1)
	if !r.spans.insert(Span{ID: id, Parent: parent, Name: name, Start: at}) {
		return 0
	}
	return id
}

// EndSpan closes a span at simulated cycle at. No-op for id 0 or unknown.
func (r *Registry) EndSpan(id SpanID, at uint64) {
	if r == nil || r.spans == nil || id == 0 {
		return
	}
	if i, ok := r.spans.byID[id]; ok {
		r.spans.spans[i].End = at
	}
}

// SpanAttrs appends typed attributes to a span. No-op for id 0 or unknown.
func (r *Registry) SpanAttrs(id SpanID, attrs ...Attr) {
	if r == nil || r.spans == nil || id == 0 {
		return
	}
	if i, ok := r.spans.byID[id]; ok {
		r.spans.spans[i].Attrs = append(r.spans.spans[i].Attrs, attrs...)
	}
}

// SetSpanParent sets the registry's ambient parent span and returns the
// previous one. Subsystems that start spans without a caller-supplied
// parent (core's compile spans) parent under the ambient span, so pc3d can
// nest the compiles it triggers under its own eval span without threading
// IDs through every API. Callers must restore the previous value.
func (r *Registry) SetSpanParent(id SpanID) SpanID {
	if r == nil || r.spans == nil {
		return 0
	}
	prev := r.spans.ambient
	r.spans.ambient = id
	return prev
}

// SpanParent returns the current ambient parent span (0 when unset).
func (r *Registry) SpanParent() SpanID {
	if r == nil || r.spans == nil {
		return 0
	}
	return r.spans.ambient
}

// Spans returns all recorded spans sorted by (Start, Server, ID) — the
// canonical deterministic order. Nil when spans are disabled.
func (r *Registry) Spans() []Span {
	if r == nil || r.spans == nil || len(r.spans.spans) == 0 {
		return nil
	}
	out := append([]Span(nil), r.spans.spans...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Server != out[j].Server {
			return out[i].Server < out[j].Server
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// OpenSpans returns the spans still open (End == 0) in canonical order —
// the in-flight operation tree at export time. The flight recorder snapshots
// this to show what the system was in the middle of when an alert fired.
func (r *Registry) OpenSpans() []Span {
	var out []Span
	for _, s := range r.Spans() {
		if s.End == 0 {
			out = append(out, s)
		}
	}
	return out
}

// Span returns the span with the given ID.
func (r *Registry) Span(id SpanID) (Span, bool) {
	if r == nil || r.spans == nil {
		return Span{}, false
	}
	if i, ok := r.spans.byID[id]; ok {
		return r.spans.spans[i], true
	}
	return Span{}, false
}

// DroppedSpans reports how many spans the bounded store discarded.
func (r *Registry) DroppedSpans() uint64 {
	if r == nil || r.spans == nil {
		return 0
	}
	return r.spans.dropped
}

// CriticalPath walks the span tree from root, selecting at each level the
// child with the longest duration (ties by smallest ID), and returns the
// chain root-first. It answers "which stage dominates this operation's
// end-to-end latency" — e.g. whether a transformation's wall time went to
// compiling, settling, or measuring.
func (r *Registry) CriticalPath(root SpanID) []Span {
	if r == nil || r.spans == nil {
		return nil
	}
	rs, ok := r.Span(root)
	if !ok {
		return nil
	}
	children := make(map[SpanID][]Span)
	for _, s := range r.spans.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	path := []Span{rs}
	cur := root
	for {
		kids := children[cur]
		if len(kids) == 0 {
			return path
		}
		best := kids[0]
		for _, k := range kids[1:] {
			if k.Duration() > best.Duration() || (k.Duration() == best.Duration() && k.ID < best.ID) {
				best = k
			}
		}
		path = append(path, best)
		cur = best.ID
	}
}

// mergeSpans folds src's spans into r with IDs remapped to
// (server+1)<<32|local — a pure function of (server, local ID), so the
// merged ID space is identical at any worker count.
func (r *Registry) mergeSpans(src *Registry, server int) {
	if r.spans == nil || src.spans == nil {
		return
	}
	remap := func(id SpanID) SpanID {
		if id == 0 {
			return 0
		}
		return SpanID(uint64(server+1)<<32 | uint64(id))
	}
	for _, s := range src.spans.spans {
		s.ID = remap(s.ID)
		s.Parent = remap(s.Parent)
		s.Server = server
		r.spans.insert(s)
	}
	r.spans.dropped += src.spans.dropped
}

// spanCat is the Chrome trace category: the name up to the first dot.
func spanCat(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// WriteChromeTrace writes spans (complete "X" events) and trace events
// (instant "i" events) as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing. Timestamps are simulated cycles (the viewer displays
// them as microseconds; only ratios matter). pid is the server index; tid
// is the root span of each tree, so every causal tree renders on its own
// track. Output is deterministic: spans in canonical order, fixed field
// order, hand-built JSON.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Resolve each span's root for track assignment.
	parent := make(map[SpanID]SpanID)
	if r.spans != nil {
		for _, s := range r.spans.spans {
			parent[s.ID] = s.Parent
		}
	}
	rootOf := func(id SpanID) SpanID {
		for {
			p, ok := parent[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
	}
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		_, err := io.WriteString(w, "\n"+line)
		return err
	}
	for _, s := range r.Spans() {
		var b strings.Builder
		fmt.Fprintf(&b, `{"name":%s,"cat":%s,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d`,
			JSONString(s.Name), JSONString(spanCat(s.Name)), s.Start, s.Duration(), s.Server, rootOf(s.ID), s.ID, s.Parent)
		if s.End == 0 {
			b.WriteString(`,"open":1`)
		}
		for _, a := range s.Attrs {
			if a.IsNum {
				fmt.Fprintf(&b, `,%s:%s`, JSONString(a.Key), fmtFloat(a.Num))
			} else {
				fmt.Fprintf(&b, `,%s:%s`, JSONString(a.Key), JSONString(a.Str))
			}
		}
		b.WriteString("}}")
		if err := emit(b.String()); err != nil {
			return err
		}
	}
	for _, e := range r.Events() {
		var b strings.Builder
		fmt.Fprintf(&b, `{"name":%s,"cat":"event","ph":"i","s":"p","ts":%d,"pid":%d,"tid":0,"args":{"core":%d`,
			JSONString(e.Kind), e.At, e.Server, e.Core)
		if e.Func != "" {
			fmt.Fprintf(&b, `,"func":%s`, JSONString(e.Func))
		}
		if e.Value != 0 {
			fmt.Fprintf(&b, `,"value":%s`, fmtFloat(e.Value))
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, `,"detail":%s`, JSONString(e.Detail))
		}
		b.WriteString("}}")
		if err := emit(b.String()); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
