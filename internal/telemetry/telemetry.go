// Package telemetry is the deterministic observability plane shared by the
// protean runtime (core), the PC3D controller, the runtime supervisor and
// the fleet simulator.
//
// The paper's evaluation is entirely about visibility into a live system:
// Figures 5–17 are timelines of compile activity, EVT dispatches, QoS
// samples and nap-state decisions. This package gives every subsystem one
// way to expose that activity — typed counters, gauges and histograms in a
// per-machine Registry, plus a bounded structured event trace — under two
// hard rules:
//
//   - Simulated time only. Instruments carry no timestamps and events are
//     stamped by the emitter with machine cycles, never wall clock, so two
//     runs of the same seed produce byte-identical exports.
//   - Single-writer registries, deterministic rollups. A Registry is owned
//     by one simulated machine (one goroutine); cluster-level views are
//     built after the workers finish by merging per-server registries in
//     server-index order. Under a fixed seed the merged Prometheus text and
//     JSONL trace are bit-identical at any worker count.
//
// Nil exports nothing: a nil *Registry hands out live but unregistered
// counters (their owner still counts and reads them) and nil gauges,
// histograms, events and spans whose methods do nothing, so instrumented
// code never branches on "is telemetry on".
// The hot-path cost of a live registry is one pointer increment per event
// (no maps, no locks, no allocation after registration).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Prefix namespaces every exported metric.
const Prefix = "protean"

// Config sizes a registry.
type Config struct {
	// TraceCap bounds the event trace: once full, the oldest events are
	// dropped (and counted in protean_telemetry_trace_dropped_total).
	// 0 means the default (8192); negative disables tracing entirely.
	TraceCap int
	// SpanCap bounds the span store: once full, new spans are dropped
	// (newest — dropping old spans would orphan retained children) and
	// counted in protean_telemetry_spans_dropped_total. 0 means the
	// default (8192); negative disables spans entirely.
	SpanCap int
}

// DefaultTraceCap is the event-buffer bound used when Config.TraceCap is 0.
const DefaultTraceCap = 8192

// Counter is a monotonically increasing uint64. Nil-safe.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable float64. Nil-safe.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add increments the value.
func (g *Gauge) Add(v float64) {
	if g != nil {
		g.v += v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed cumulative buckets
// (Prometheus-style "le" upper bounds, +Inf implicit). Nil-safe.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
}

// Quantile estimates the p-quantile (p clamped to [0,1]) by linear
// interpolation within the bucket containing the target rank — the same
// estimate Prometheus's histogram_quantile computes. Returns NaN for an
// empty (or nil) histogram. A rank landing in the +Inf bucket reports the
// highest finite bound (the estimate cannot exceed observed bounds); a
// histogram with only a +Inf bucket returns NaN.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil || h.n == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if c == 0 || cum < rank {
			continue
		}
		if i == len(h.bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			if len(h.bounds) == 0 {
				return math.NaN()
			}
			return h.bounds[len(h.bounds)-1]
		}
		upper := h.bounds[i]
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		}
		if upper <= lower {
			// First bucket with a non-positive bound: no width to
			// interpolate over.
			return upper
		}
		return lower + (upper-lower)*(rank-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry holds one machine's instruments and event trace. Not safe for
// concurrent use: it belongs to the goroutine simulating that machine.
// Merge per-server registries after the workers join (MergeFrom).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string

	trace *traceBuf
	spans *spanBuf
}

// New builds a registry.
func New(cfg Config) *Registry {
	cap := cfg.TraceCap
	if cap == 0 {
		cap = DefaultTraceCap
	}
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
	if cap > 0 {
		r.trace = newTraceBuf(cap)
	}
	scap := cfg.SpanCap
	if scap == 0 {
		scap = DefaultSpanCap
	}
	if scap > 0 {
		r.spans = newSpanBuf(scap)
	}
	return r
}

func metricName(subsystem, name string) string {
	return Prefix + "_" + subsystem + "_" + name
}

// Counter registers (or returns the existing) counter
// protean_<subsystem>_<name>. help is kept from the first registration. On
// a nil registry it returns a fresh, unregistered counter: its owner can
// still count and read it, and nothing is exported — so a counter is the
// one book for an activity, with or without telemetry.
func (r *Registry) Counter(subsystem, name, help string) *Counter {
	if r == nil {
		return &Counter{}
	}
	full := metricName(subsystem, name)
	c := r.counters[full]
	if c == nil {
		c = &Counter{}
		r.counters[full] = c
		r.setHelp(full, help)
	}
	return c
}

// Gauge registers (or returns the existing) gauge protean_<subsystem>_<name>.
func (r *Registry) Gauge(subsystem, name, help string) *Gauge {
	if r == nil {
		return nil
	}
	full := metricName(subsystem, name)
	g := r.gauges[full]
	if g == nil {
		g = &Gauge{}
		r.gauges[full] = g
		r.setHelp(full, help)
	}
	return g
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds (sorted ascending; +Inf is implicit). Buckets are
// fixed at first registration.
func (r *Registry) Histogram(subsystem, name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	full := metricName(subsystem, name)
	h := r.hists[full]
	if h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[full] = h
		r.setHelp(full, help)
	}
	return h
}

func (r *Registry) setHelp(full, help string) {
	if help != "" {
		r.help[full] = help
	}
}

// CounterValue reads protean_<subsystem>_<name>, 0 when absent or nil.
func (r *Registry) CounterValue(subsystem, name string) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[metricName(subsystem, name)].Value()
}

// GaugeValue reads protean_<subsystem>_<name>, 0 when absent or nil.
func (r *Registry) GaugeValue(subsystem, name string) float64 {
	if r == nil {
		return 0
	}
	return r.gauges[metricName(subsystem, name)].Value()
}

// Merge folds src's observations into h bucket-wise. Buckets are matched
// by position when the bound sets have equal length; otherwise src's
// observations fold into the +Inf bucket (re-observing at bound midpoints
// would be lossy and non-deterministic). Nil-safe in both positions.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	if len(h.bounds) == len(src.bounds) {
		for i, n := range src.counts {
			h.counts[i] += n
		}
	} else {
		for _, n := range src.counts {
			h.counts[len(h.counts)-1] += n
		}
	}
	h.sum += src.sum
	h.n += src.n
}

// Clone deep-copies the histogram (nil in, nil out).
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	return &Histogram{
		bounds: append([]float64(nil), h.bounds...),
		counts: append([]uint64(nil), h.counts...),
		sum:    h.sum, n: h.n,
	}
}

// sortedKeys returns map keys in name order, the canonical iteration order
// for every enumeration and export.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EachCounter calls fn for every registered counter in metric-name order.
// Names are the full exported form (protean_<subsystem>_<name>).
func (r *Registry) EachCounter(fn func(name string, v uint64)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.counters) {
		fn(k, r.counters[k].v)
	}
}

// EachGauge calls fn for every registered gauge in metric-name order.
func (r *Registry) EachGauge(fn func(name string, v float64)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.gauges) {
		fn(k, r.gauges[k].v)
	}
}

// EachHistogram calls fn for every registered histogram in metric-name
// order. The histogram is the live instrument — callers must not mutate it
// (Clone first to merge or fold).
func (r *Registry) EachHistogram(fn func(name string, h *Histogram)) {
	if r == nil {
		return
	}
	for _, k := range sortedKeys(r.hists) {
		fn(k, r.hists[k])
	}
}

// MergeFrom folds src into r: counters and gauges add, histograms add
// bucket-wise (buckets are unified by upper bound), and src's events are
// appended with their Server field stamped to server. Call in a fixed
// order (server index) for deterministic rollups; gauges are therefore
// additive in rollups (meaningful for sums like availability; document
// per-metric semantics where that matters).
func (r *Registry) MergeFrom(src *Registry, server int) {
	if r == nil || src == nil {
		return
	}
	for full, c := range src.counters {
		dst := r.counters[full]
		if dst == nil {
			dst = &Counter{}
			r.counters[full] = dst
			r.setHelp(full, src.help[full])
		}
		dst.v += c.v
	}
	for full, g := range src.gauges {
		dst := r.gauges[full]
		if dst == nil {
			dst = &Gauge{}
			r.gauges[full] = dst
			r.setHelp(full, src.help[full])
		}
		dst.v += g.v
	}
	for full, h := range src.hists {
		dst := r.hists[full]
		if dst == nil {
			dst = &Histogram{bounds: append([]float64(nil), h.bounds...), counts: make([]uint64, len(h.counts))}
			r.hists[full] = dst
			r.setHelp(full, src.help[full])
		}
		dst.Merge(h)
	}
	if r.trace != nil && src.trace != nil {
		for _, e := range src.trace.events() {
			e.Server = server
			r.trace.emit(e)
		}
		r.trace.dropped += src.trace.dropped
	}
	r.mergeSpans(src, server)
}

// Clone deep-copies the registry — instruments, event trace and spans.
// The live scrape surface uses it to publish consistent read-only
// snapshots of a simulation's single-writer registry to another
// goroutine; the owner clones, then hands the clone across a mutex.
func (r *Registry) Clone() *Registry {
	if r == nil {
		return nil
	}
	out := &Registry{
		counters: make(map[string]*Counter, len(r.counters)),
		gauges:   make(map[string]*Gauge, len(r.gauges)),
		hists:    make(map[string]*Histogram, len(r.hists)),
		help:     make(map[string]string, len(r.help)),
	}
	for k, c := range r.counters {
		out.counters[k] = &Counter{v: c.v}
	}
	for k, g := range r.gauges {
		out.gauges[k] = &Gauge{v: g.v}
	}
	for k, h := range r.hists {
		out.hists[k] = &Histogram{
			bounds: append([]float64(nil), h.bounds...),
			counts: append([]uint64(nil), h.counts...),
			sum:    h.sum, n: h.n,
		}
	}
	for k, v := range r.help {
		out.help[k] = v
	}
	if r.trace != nil {
		t := newTraceBuf(r.trace.cap)
		t.events_ = append([]Event(nil), r.trace.events_...)
		t.start = r.trace.start
		t.seq = r.trace.seq
		t.dropped = r.trace.dropped
		out.trace = t
	}
	if r.spans != nil {
		s := newSpanBuf(r.spans.cap)
		s.spans = make([]Span, len(r.spans.spans))
		for i, sp := range r.spans.spans {
			sp.Attrs = append([]Attr(nil), sp.Attrs...)
			s.spans[i] = sp
			s.byID[sp.ID] = i
		}
		s.dropped = r.spans.dropped
		s.ambient = r.spans.ambient
		out.spans = s
	}
	return out
}

// fmtFloat renders a float deterministically (shortest round-trip form).
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// FormatFloat is the canonical deterministic float rendering used in
// exports (shortest round-trip form), for emitters building Detail strings.
func FormatFloat(v float64) string { return fmtFloat(v) }

// WritePrometheus writes the registry in Prometheus text exposition format,
// metrics sorted by name — byte-identical for identical instrument states.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type metric struct {
		full string
		kind int // 0 counter, 1 gauge, 2 histogram
	}
	var all []metric
	for full := range r.counters {
		all = append(all, metric{full, 0})
	}
	for full := range r.gauges {
		all = append(all, metric{full, 1})
	}
	for full := range r.hists {
		all = append(all, metric{full, 2})
	}
	if r.trace != nil {
		// Trace accounting is itself a counter, surfaced uniformly.
		all = append(all, metric{metricName("telemetry", "trace_dropped_total"), 3})
	}
	if r.spans != nil {
		all = append(all, metric{metricName("telemetry", "spans_dropped_total"), 4})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].full < all[j].full })
	var b strings.Builder
	for _, m := range all {
		switch m.kind {
		case 0, 3, 4:
			h := r.help[m.full]
			switch m.kind {
			case 3:
				h = "trace events dropped by the bounded ring (oldest first)"
			case 4:
				h = "spans dropped by the bounded store (newest first)"
			}
			if h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.full, h)
			}
			fmt.Fprintf(&b, "# TYPE %s counter\n", m.full)
			v := uint64(0)
			switch m.kind {
			case 0:
				v = r.counters[m.full].v
			case 3:
				v = r.trace.dropped
			case 4:
				v = r.spans.dropped
			}
			fmt.Fprintf(&b, "%s %d\n", m.full, v)
		case 1:
			if h := r.help[m.full]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.full, h)
			}
			fmt.Fprintf(&b, "# TYPE %s gauge\n", m.full)
			fmt.Fprintf(&b, "%s %s\n", m.full, fmtFloat(r.gauges[m.full].v))
		case 2:
			if h := r.help[m.full]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.full, h)
			}
			fmt.Fprintf(&b, "# TYPE %s histogram\n", m.full)
			hist := r.hists[m.full]
			cum := uint64(0)
			for i, bound := range hist.bounds {
				cum += hist.counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.full, fmtFloat(bound), cum)
			}
			cum += hist.counts[len(hist.counts)-1]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.full, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.full, fmtFloat(hist.sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.full, hist.n)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// PrometheusText renders WritePrometheus to a string ("" on nil).
func (r *Registry) PrometheusText() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	r.WritePrometheus(&b) //nolint:errcheck // strings.Builder never errors
	return b.String()
}

// WriteExport runs one of the export writers (WritePrometheus, WriteJSONL,
// WriteChromeTrace, a profile writer) against the file at path, with "-"
// meaning stdout. A failed write still closes the file.
func WriteExport(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
