package telemetry

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestSpanIDsSequentialAndDeterministic(t *testing.T) {
	mk := func() *Registry {
		r := New(Config{})
		root := r.StartSpan("pc3d.search", 100, 0)
		kid := r.StartSpan("pc3d.variant_eval", 110, root)
		r.SpanAttrs(kid, Num("mask_size", 3), Str("status", "ok"))
		r.EndSpan(kid, 150)
		r.EndSpan(root, 200)
		return r
	}
	a, b := mk(), mk()
	as, bs := a.Spans(), b.Spans()
	if len(as) != 2 || len(bs) != 2 {
		t.Fatalf("spans = %d/%d, want 2/2", len(as), len(bs))
	}
	if as[0].ID != 1 || as[1].ID != 2 {
		t.Errorf("IDs = %d,%d, want sequential 1,2", as[0].ID, as[1].ID)
	}
	if as[1].Parent != as[0].ID {
		t.Errorf("child parent = %d, want %d", as[1].Parent, as[0].ID)
	}
	if as[1].Duration() != 40 {
		t.Errorf("child duration = %d, want 40", as[1].Duration())
	}
	if render(a.WriteChromeTrace) != render(b.WriteChromeTrace) {
		t.Error("identical span trees exported different Chrome JSON")
	}
}

func TestSpanStoreDropsNewest(t *testing.T) {
	r := New(Config{SpanCap: 2})
	a := r.StartSpan("x.a", 1, 0)
	b := r.StartSpan("x.b", 2, a)
	c := r.StartSpan("x.c", 3, b) // over cap: dropped
	if a == 0 || b == 0 {
		t.Fatal("in-cap spans returned 0")
	}
	if c != 0 {
		t.Fatalf("over-cap StartSpan = %d, want 0", c)
	}
	// Operations on the dropped ID are safe no-ops.
	r.SpanAttrs(c, Str("k", "v"))
	r.EndSpan(c, 9)
	if got := len(r.Spans()); got != 2 {
		t.Errorf("retained spans = %d, want 2", got)
	}
	if r.DroppedSpans() != 1 {
		t.Errorf("DroppedSpans = %d, want 1", r.DroppedSpans())
	}
	if !strings.Contains(r.PrometheusText(), "protean_telemetry_spans_dropped_total 1") {
		t.Error("spans_dropped counter not exported")
	}
}

func TestSpanDisabledAndNil(t *testing.T) {
	var nilr *Registry
	if nilr.StartSpan("x", 1, 0) != 0 {
		t.Error("nil registry recorded a span")
	}
	r := New(Config{SpanCap: -1})
	if id := r.StartSpan("x", 1, 0); id != 0 {
		t.Errorf("disabled StartSpan = %d, want 0", id)
	}
	if r.Spans() != nil {
		t.Error("disabled spans produced output")
	}
}

func TestSpanAmbientParent(t *testing.T) {
	r := New(Config{})
	root := r.StartSpan("pc3d.search", 0, 0)
	prev := r.SetSpanParent(root)
	if prev != 0 {
		t.Errorf("initial ambient = %d, want 0", prev)
	}
	// A subsystem that cannot see root still nests under it.
	kid := r.StartSpan("core.compile", 5, r.SpanParent())
	if s, _ := r.Span(kid); s.Parent != root {
		t.Errorf("ambient-parented span got parent %d, want %d", s.Parent, root)
	}
	if got := r.SetSpanParent(prev); got != root {
		t.Errorf("restore returned %d, want %d", got, root)
	}
	if r.SpanParent() != 0 {
		t.Error("ambient parent not restored")
	}
}

// TestSpanMergeRemapDeterministic: fleet rollup remaps (server, local ID)
// to a fixed 64-bit ID, so merging the same per-server registries in index
// order yields identical bytes regardless of how the servers simulated.
func TestSpanMergeRemapDeterministic(t *testing.T) {
	mkServer := func(start uint64) *Registry {
		r := New(Config{})
		root := r.StartSpan("supervise.recovery", start, 0)
		kid := r.StartSpan("supervise.backoff", start+1, root)
		r.EndSpan(kid, start+5)
		r.EndSpan(root, start+10)
		return r
	}
	merge := func() *Registry {
		agg := New(Config{})
		agg.MergeFrom(mkServer(100), 0)
		agg.MergeFrom(mkServer(50), 1)
		return agg
	}
	a, b := merge(), merge()
	if render(a.WriteChromeTrace) != render(b.WriteChromeTrace) {
		t.Fatal("identical merges exported different Chrome JSON")
	}
	sp := a.Spans()
	if len(sp) != 4 {
		t.Fatalf("merged spans = %d, want 4", len(sp))
	}
	// Canonical order: server 1's earlier spans first.
	if sp[0].Server != 1 || sp[0].Start != 50 {
		t.Errorf("first span = server %d @%d, want server 1 @50", sp[0].Server, sp[0].Start)
	}
	wantRoot := SpanID(2<<32 | 1)
	if sp[0].ID != wantRoot {
		t.Errorf("remapped root ID = %d, want %d", sp[0].ID, wantRoot)
	}
	if sp[1].Parent != wantRoot {
		t.Errorf("remapped child parent = %d, want %d", sp[1].Parent, wantRoot)
	}
	// Roots keep parent 0 across the remap.
	if sp[0].Parent != 0 {
		t.Errorf("root parent remapped to %d", sp[0].Parent)
	}
}

func TestCriticalPathPicksLongestChild(t *testing.T) {
	r := New(Config{})
	root := r.StartSpan("pc3d.search", 0, 0)
	e1 := r.StartSpan("pc3d.variant_eval", 10, root)
	e2 := r.StartSpan("pc3d.variant_eval", 20, root)
	p1 := r.StartSpan("pc3d.probe", 25, e2)
	p2 := r.StartSpan("pc3d.probe", 40, e2)
	r.EndSpan(p1, 30)  // dur 5
	r.EndSpan(p2, 90)  // dur 50 — dominates
	r.EndSpan(e1, 15)  // dur 5
	r.EndSpan(e2, 100) // dur 80 — dominates
	r.EndSpan(root, 120)
	path := r.CriticalPath(root)
	if len(path) != 3 {
		t.Fatalf("path len = %d, want 3 (%+v)", len(path), path)
	}
	if path[0].ID != root || path[1].ID != e2 || path[2].ID != p2 {
		t.Errorf("path = %d→%d→%d, want %d→%d→%d",
			path[0].ID, path[1].ID, path[2].ID, root, e2, p2)
	}
	if r.CriticalPath(SpanID(999)) != nil {
		t.Error("unknown root produced a path")
	}
}

func TestChromeTraceShape(t *testing.T) {
	r := New(Config{})
	root := r.StartSpan("pc3d.search", 100, 0)
	kid := r.StartSpan("core.compile", 110, root)
	r.SpanAttrs(kid, Str("func", `f"n`), Num("job", 2))
	r.EndSpan(kid, 150)
	// root left open on purpose.
	r.Emit(Event{At: 120, Kind: EvDispatch, Core: 2, Func: "hot"})
	out := render(r.WriteChromeTrace)
	if !strings.HasPrefix(out, `{"traceEvents":[`) || !strings.HasSuffix(out, "\n]}\n") {
		t.Fatalf("not a trace-event envelope:\n%s", out)
	}
	for _, want := range []string{
		`"name":"pc3d.search","cat":"pc3d","ph":"X","ts":100`,
		`"open":1`, // unfinished root flagged
		`"name":"core.compile","cat":"core","ph":"X","ts":110,"dur":40`,
		`"func":"f\"n"`,
		`"job":2`,
		`"name":"dispatch","cat":"event","ph":"i","s":"p","ts":120`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Both spans render on the root's track (same tree → same tid).
	if !strings.Contains(out, `"tid":1,"args":{"id":1`) || !strings.Contains(out, `"tid":1,"args":{"id":2`) {
		t.Errorf("spans not grouped on the root track:\n%s", out)
	}
}

func TestRegistryCloneIsDeep(t *testing.T) {
	r := New(Config{TraceCap: 4})
	r.Counter("core", "compiles_total", "h").Add(2)
	r.Gauge("pc3d", "nap_intensity", "h").Set(0.5)
	r.Histogram("fleet", "server_qos", "h", []float64{0.5, 1}).Observe(0.7)
	r.Emit(Event{At: 5, Kind: EvNap})
	sp := r.StartSpan("pc3d.search", 1, 0)
	r.SpanAttrs(sp, Str("k", "v"))
	cl := r.Clone()
	before := cl.PrometheusText() + render(cl.WriteJSONL) + render(cl.WriteChromeTrace)
	// Mutate the original in every store; the clone must not move.
	r.Counter("core", "compiles_total", "h").Inc()
	r.Gauge("pc3d", "nap_intensity", "h").Set(0.9)
	r.Histogram("fleet", "server_qos", "h", []float64{0.5, 1}).Observe(0.1)
	r.Emit(Event{At: 9, Kind: EvNap})
	r.SpanAttrs(sp, Str("k2", "v2"))
	r.EndSpan(sp, 77)
	after := cl.PrometheusText() + render(cl.WriteJSONL) + render(cl.WriteChromeTrace)
	if before != after {
		t.Error("mutating the original changed the clone")
	}
	if cl.CounterValue("core", "compiles_total") != 2 {
		t.Errorf("clone counter = %d, want 2", cl.CounterValue("core", "compiles_total"))
	}
	if (*Registry)(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := New(Config{})
	h := r.Histogram("x", "q", "", []float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	for _, v := range []float64{0.5, 1.5, 1.6, 3} {
		h.Observe(v)
	}
	// 4 observations: counts [1,2,1,0]. Median rank 2 lands in (1,2].
	if got := h.Quantile(0.5); got != 1.5 {
		t.Errorf("Quantile(0.5) = %v, want 1.5 (linear interpolation)", got)
	}
	// p=0 clamps into the first bucket, interpolating from lower bound 0.
	if got := h.Quantile(0); got < 0 || got > 1 {
		t.Errorf("Quantile(0) = %v, want within first bucket [0,1]", got)
	}
	// p beyond 1 clamps to 1; everything fits under the top finite bound.
	if got := h.Quantile(2); got != 4 {
		t.Errorf("Quantile(2) = %v, want 4", got)
	}
	// An observation above all bounds resolves to the highest finite bound.
	h.Observe(99)
	if got := h.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) with +Inf mass = %v, want 4 (clamped)", got)
	}
	// No finite bounds at all: nothing to interpolate against.
	h2 := r.Histogram("x", "q2", "", nil)
	h2.Observe(3)
	if !math.IsNaN(h2.Quantile(0.5)) {
		t.Error("boundless histogram quantile should be NaN")
	}
	var hnil *Histogram
	if !math.IsNaN(hnil.Quantile(0.5)) {
		t.Error("nil histogram quantile should be NaN")
	}
}

// failAfter errors on the Nth write — exercises exporter error paths.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("sink full")
	}
	f.n--
	return len(p), nil
}

func TestExportersPropagateWriteErrors(t *testing.T) {
	r := New(Config{})
	r.Counter("core", "compiles_total", "h").Add(1)
	r.Emit(Event{At: 1, Kind: EvNap})
	r.Emit(Event{At: 2, Kind: EvNap})
	r.StartSpan("x.y", 1, 0)
	// WritePrometheus buffers the whole export into one write.
	if err := r.WritePrometheus(&failAfter{n: 0}); err == nil {
		t.Error("WritePrometheus on a failing writer returned nil error")
	}
	// WriteJSONL writes one line per event; WriteChromeTrace writes the
	// envelope then one chunk per record — both must stop at the first error.
	for i := 0; i < 2; i++ {
		if err := r.WriteJSONL(&failAfter{n: i}); err == nil {
			t.Errorf("WriteJSONL(fail@%d) returned nil error", i)
		}
		if err := r.WriteChromeTrace(&failAfter{n: i}); err == nil {
			t.Errorf("WriteChromeTrace(fail@%d) returned nil error", i)
		}
	}
}

// TestDroppedEventsAcrossMerge: ring overflow counts survive the rollup —
// the aggregate reports how much trace the whole fleet lost.
func TestDroppedEventsAcrossMerge(t *testing.T) {
	mk := func(n int) *Registry {
		r := New(Config{TraceCap: 2})
		for i := 0; i < n; i++ {
			r.Emit(Event{At: uint64(i), Kind: EvNap})
		}
		return r
	}
	agg := New(Config{TraceCap: 64})
	agg.MergeFrom(mk(5), 0) // 3 dropped
	agg.MergeFrom(mk(4), 1) // 2 dropped
	if got := agg.DroppedEvents(); got != 5 {
		t.Errorf("merged DroppedEvents = %d, want 5", got)
	}
	// The retained windows themselves merge in canonical order.
	if got := len(agg.Events()); got != 4 {
		t.Errorf("merged events = %d, want 4", got)
	}
}

// TestCriticalPathOverFleetMergedSpans: satellite coverage — after a fleet
// rollup remaps per-server span IDs to (server+1)<<32|local, CriticalPath
// must still walk the right tree: parent links survive the remap, and the
// longest-child rule picks within one server's tree without leaking into a
// sibling server's spans.
func TestCriticalPathOverFleetMergedSpans(t *testing.T) {
	mkServer := func(rootDur, kidADur, kidBDur uint64) *Registry {
		r := New(Config{})
		root := r.StartSpan("migrate.move", 0, 0)
		a := r.StartSpan("migrate.detach", 1, root)
		r.EndSpan(a, 1+kidADur)
		b := r.StartSpan("migrate.land", 2, root)
		r.EndSpan(b, 2+kidBDur)
		r.EndSpan(root, rootDur)
		return r
	}
	agg := New(Config{})
	agg.MergeFrom(mkServer(100, 5, 50), 0) // server 0: land dominates
	agg.MergeFrom(mkServer(100, 80, 3), 1) // server 1: detach dominates
	root0 := SpanID(1<<32 | 1)
	root1 := SpanID(2<<32 | 1)
	p0 := agg.CriticalPath(root0)
	if len(p0) != 2 || p0[1].Name != "migrate.land" || p0[1].Server != 0 {
		t.Fatalf("server-0 path = %+v, want root→migrate.land on server 0", p0)
	}
	if p0[1].ID != SpanID(1<<32|3) {
		t.Errorf("server-0 leaf ID = %d, want %d", p0[1].ID, SpanID(1<<32|3))
	}
	p1 := agg.CriticalPath(root1)
	if len(p1) != 2 || p1[1].Name != "migrate.detach" || p1[1].Server != 1 {
		t.Fatalf("server-1 path = %+v, want root→migrate.detach on server 1", p1)
	}
	// Merging the same registries twice yields the same paths — remapped IDs
	// are a pure function of (server, local ID).
	agg2 := New(Config{})
	agg2.MergeFrom(mkServer(100, 5, 50), 0)
	agg2.MergeFrom(mkServer(100, 80, 3), 1)
	q0 := agg2.CriticalPath(root0)
	if len(q0) != len(p0) || q0[1].ID != p0[1].ID {
		t.Error("re-merged registry walked a different critical path")
	}
}

// TestOpenSpans: only spans with End == 0 surface, in canonical order, and
// the set survives a fleet merge.
func TestOpenSpans(t *testing.T) {
	r := New(Config{})
	a := r.StartSpan("pc3d.search", 10, 0)
	b := r.StartSpan("core.compile", 20, a)
	r.EndSpan(b, 30)
	r.StartSpan("supervise.recovery", 5, 0) // left open
	open := r.OpenSpans()
	if len(open) != 2 {
		t.Fatalf("open spans = %d, want 2", len(open))
	}
	if open[0].Name != "supervise.recovery" || open[1].Name != "pc3d.search" {
		t.Errorf("open order = %s, %s", open[0].Name, open[1].Name)
	}
	agg := New(Config{})
	agg.MergeFrom(r, 3)
	mopen := agg.OpenSpans()
	if len(mopen) != 2 || mopen[1].Server != 3 {
		t.Errorf("merged open spans = %+v", mopen)
	}
	var nilr *Registry
	if nilr.OpenSpans() != nil {
		t.Error("nil registry produced open spans")
	}
}
