package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// render returns what one of the registry's writers writes.
func render(write func(io.Writer) error) string {
	var b strings.Builder
	write(&b) //nolint:errcheck // strings.Builder never errors
	return b.String()
}

// TestNilRegistryIsNoOp: a nil registry exports nothing, but its counters
// still count for their owner — a counter is the one book for an activity
// whether or not telemetry is on. Gauges, histograms and events no-op.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("core", "compiles_total", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 6 {
		t.Errorf("nil registry's counter = %d, want 6 (its owner still counts)", c.Value())
	}
	if r.Counter("core", "compiles_total", "") == c {
		t.Error("nil registry handed out a shared counter; it registers nothing")
	}
	g := r.Gauge("pc3d", "nap_intensity", "")
	g.Set(0.5)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("fleet", "server_qos", "", []float64{0.5, 1})
	h.Observe(0.7)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("nil histogram accumulated")
	}
	r.Emit(Event{At: 1, Kind: EvDispatch})
	if r.Events() != nil || r.PrometheusText() != "" || render(r.WriteJSONL) != "" {
		t.Error("nil registry produced output")
	}
	if r.CounterValue("core", "compiles_total") != 0 || r.GaugeValue("pc3d", "nap_intensity") != 0 {
		t.Error("nil registry read nonzero")
	}
	r.MergeFrom(New(Config{}), 0) // must not panic
}

func TestInstrumentsIdempotentByName(t *testing.T) {
	r := New(Config{})
	a := r.Counter("core", "compiles_total", "compiles")
	b := r.Counter("core", "compiles_total", "ignored second help")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(3)
	if r.CounterValue("core", "compiles_total") != 3 {
		t.Errorf("CounterValue = %d, want 3", r.CounterValue("core", "compiles_total"))
	}
	if g1, g2 := r.Gauge("x", "g", ""), r.Gauge("x", "g", ""); g1 != g2 {
		t.Fatal("same name returned distinct gauges")
	}
}

func TestPrometheusExportSortedAndStable(t *testing.T) {
	build := func() *Registry {
		r := New(Config{})
		r.Counter("core", "compiles_total", "completed compiles").Add(7)
		r.Gauge("pc3d", "nap_intensity", "live nap duty cycle").Set(0.25)
		h := r.Histogram("fleet", "server_qos", "per-server QoS", []float64{0.5, 0.9, 0.95, 1})
		h.Observe(0.93)
		h.Observe(0.99)
		h.Observe(1.0)
		return r
	}
	a, b := build().PrometheusText(), build().PrometheusText()
	if a != b {
		t.Fatal("identical registries exported different bytes")
	}
	for _, want := range []string{
		"# TYPE protean_core_compiles_total counter",
		"protean_core_compiles_total 7",
		"protean_pc3d_nap_intensity 0.25",
		`protean_fleet_server_qos_bucket{le="0.95"} 1`,
		`protean_fleet_server_qos_bucket{le="+Inf"} 3`,
		"protean_fleet_server_qos_count 3",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("export missing %q:\n%s", want, a)
		}
	}
	// Metric blocks sorted by name: core < fleet < pc3d.
	core := strings.Index(a, "protean_core_")
	fl := strings.Index(a, "protean_fleet_")
	pc := strings.Index(a, "protean_pc3d_")
	if !(core < fl && fl < pc) {
		t.Errorf("metrics not sorted: core@%d fleet@%d pc3d@%d", core, fl, pc)
	}
}

func TestMergeSumsAndStampsServer(t *testing.T) {
	mk := func(n uint64, at uint64) *Registry {
		r := New(Config{})
		r.Counter("supervise", "restarts_total", "").Add(n)
		r.Gauge("fleet", "availability", "").Set(0.5)
		r.Histogram("fleet", "server_qos", "", []float64{0.5, 1}).Observe(0.8)
		r.Emit(Event{At: at, Kind: EvReattach, Value: float64(n)})
		return r
	}
	agg := New(Config{})
	agg.MergeFrom(mk(2, 100), 0)
	agg.MergeFrom(mk(3, 50), 1)
	if v := agg.CounterValue("supervise", "restarts_total"); v != 5 {
		t.Errorf("merged counter = %d, want 5", v)
	}
	if v := agg.GaugeValue("fleet", "availability"); v != 1.0 {
		t.Errorf("merged gauge = %v, want 1 (additive rollup)", v)
	}
	ev := agg.Events()
	if len(ev) != 2 {
		t.Fatalf("merged events = %d, want 2", len(ev))
	}
	// Canonical order: by At first, so server 1's earlier event leads.
	if ev[0].Server != 1 || ev[0].At != 50 || ev[1].Server != 0 || ev[1].At != 100 {
		t.Errorf("events out of canonical order: %+v", ev)
	}
}

func TestTraceBoundedDropsOldest(t *testing.T) {
	r := New(Config{TraceCap: 4})
	for i := uint64(0); i < 10; i++ {
		r.Emit(Event{At: i, Kind: EvNap})
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	if ev[0].At != 6 || ev[3].At != 9 {
		t.Errorf("ring kept wrong window: %+v", ev)
	}
	if r.DroppedEvents() != 6 {
		t.Errorf("DroppedEvents = %d, want 6", r.DroppedEvents())
	}
	if !strings.Contains(r.PrometheusText(), "protean_telemetry_trace_dropped_total 6") {
		t.Error("dropped counter not exported")
	}
}

func TestTraceDisabled(t *testing.T) {
	r := New(Config{TraceCap: -1})
	if r.TraceEnabled() {
		t.Fatal("TraceCap<0 should disable tracing")
	}
	r.Emit(Event{At: 1, Kind: EvDispatch})
	if r.Events() != nil {
		t.Error("disabled trace recorded events")
	}
}

func TestJSONLDeterministicAndEscaped(t *testing.T) {
	mk := func() *Registry {
		r := New(Config{})
		r.Emit(Event{At: 10, Kind: EvCompileFail, Func: `f"n`, Detail: "line1\nline2", Value: 1.5})
		r.Emit(Event{At: 10, Kind: EvDispatch, Core: 2, Func: "hot"})
		return r
	}
	a, b := render(mk().WriteJSONL), render(mk().WriteJSONL)
	if a != b {
		t.Fatal("identical traces produced different JSONL")
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	if want := `{"at":10,"kind":"compile_fail","server":0,"core":0,"func":"f\"n","value":1.5,"detail":"line1\nline2"}`; lines[0] != want {
		t.Errorf("line 0 = %s\nwant     %s", lines[0], want)
	}
	// Same-cycle events keep emit order.
	if !strings.Contains(lines[1], `"kind":"dispatch"`) {
		t.Errorf("line 1 = %s", lines[1])
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := New(Config{})
	h := r.Histogram("x", "h", "", []float64{1, 2})
	h.Observe(1) // lands in le="1" (upper bounds are inclusive)
	h.Observe(1.5)
	h.Observe(99)
	out := r.PrometheusText()
	for _, want := range []string{
		`protean_x_h_bucket{le="1"} 1`,
		`protean_x_h_bucket{le="2"} 2`,
		`protean_x_h_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestEnumerationSortedByName: EachCounter/EachGauge/EachHistogram visit
// instruments in metric-name order — the tsdb samples through these, so the
// order is part of the determinism contract.
func TestEnumerationSortedByName(t *testing.T) {
	r := New(Config{})
	r.Counter("z", "last_total", "").Add(1)
	r.Counter("a", "first_total", "").Add(2)
	r.Gauge("m", "mid", "").Set(3)
	r.Histogram("b", "h", "", []float64{1}).Observe(0.5)
	var cs, gs, hs []string
	r.EachCounter(func(name string, v uint64) { cs = append(cs, name) })
	r.EachGauge(func(name string, v float64) { gs = append(gs, name) })
	r.EachHistogram(func(name string, h *Histogram) { hs = append(hs, name) })
	if len(cs) != 2 || cs[0] != "protean_a_first_total" || cs[1] != "protean_z_last_total" {
		t.Errorf("counters out of order: %v", cs)
	}
	if len(gs) != 1 || gs[0] != "protean_m_mid" {
		t.Errorf("gauges = %v", gs)
	}
	if len(hs) != 1 || hs[0] != "protean_b_h" {
		t.Errorf("histograms = %v", hs)
	}
	var nilr *Registry
	nilr.EachCounter(func(string, uint64) { t.Error("nil registry enumerated") })
	nilr.EachGauge(func(string, float64) { t.Error("nil registry enumerated") })
	nilr.EachHistogram(func(string, *Histogram) { t.Error("nil registry enumerated") })
}

// TestHistogramMergeClone: Clone is deep, Merge adds bucket-wise when bound
// sets match and folds into +Inf when they don't.
func TestHistogramMergeClone(t *testing.T) {
	r := New(Config{})
	a := r.Histogram("x", "a", "", []float64{1, 2})
	a.Observe(0.5)
	a.Observe(1.5)
	cl := a.Clone()
	a.Observe(0.5)
	if cl.n != 2 {
		t.Errorf("clone count = %d, want 2 (deep copy)", cl.n)
	}
	b := r.Histogram("x", "b", "", []float64{1, 2})
	b.Observe(1.8)
	cl.Merge(b)
	if cl.n != 3 || cl.sum != 0.5+1.5+1.8 {
		t.Errorf("merged count=%d sum=%v", cl.n, cl.sum)
	}
	// Mismatched bounds fold into +Inf: the quantile collapses to the top
	// finite bound once most mass sits in the overflow bucket.
	c := r.Histogram("x", "c", "", []float64{10, 20, 30})
	c.Observe(5)
	c.Observe(15)
	c.Observe(25)
	cl.Merge(c)
	if cl.n != 6 {
		t.Errorf("fold-merged count = %d, want 6", cl.n)
	}
	if got := cl.Quantile(1); got != 2 {
		t.Errorf("Quantile(1) after fold = %v, want 2 (overflow clamps to top bound)", got)
	}
	var hnil *Histogram
	hnil.Merge(a) // must not panic
	a.Merge(nil)
	if hnil.Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

// TestQuantileSingleBucketAndExtremes: the edge cases the SLO quantile
// series lean on — a one-bucket histogram interpolates within [0, bound],
// and q=0 / q=1 return the distribution's extremes.
func TestQuantileSingleBucketAndExtremes(t *testing.T) {
	r := New(Config{})
	h := r.Histogram("x", "single", "", []float64{4})
	h.Observe(1)
	h.Observe(3)
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v, want 0 (lower edge of only bucket)", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4 (upper edge of only bucket)", got)
	}
	if got := h.Quantile(0.5); got <= 0 || got > 4 {
		t.Errorf("Quantile(0.5) = %v, want within (0,4]", got)
	}
	// q outside [0,1] clamps rather than extrapolating.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(5) != h.Quantile(1) {
		t.Error("out-of-range q should clamp to [0,1]")
	}
}

// TestEventsTail: the flight recorder's trace-tail snapshot returns the last
// n events in canonical order.
func TestEventsTail(t *testing.T) {
	r := New(Config{})
	for i := 0; i < 5; i++ {
		r.Emit(Event{At: uint64(10 + i), Kind: EvDispatch, Func: "f"})
	}
	tail := r.EventsTail(2)
	if len(tail) != 2 || tail[0].At != 13 || tail[1].At != 14 {
		t.Errorf("tail = %+v, want events at 13,14", tail)
	}
	if got := r.EventsTail(0); len(got) != 5 {
		t.Errorf("EventsTail(0) = %d events, want all 5", len(got))
	}
	if got := r.EventsTail(99); len(got) != 5 {
		t.Errorf("EventsTail(99) = %d events, want all 5", len(got))
	}
	var nilr *Registry
	if nilr.EventsTail(3) != nil {
		t.Error("nil registry produced a tail")
	}
}

// TestJSONStringSurvivesAParser: control bytes and invalid UTF-8 — which
// Go's %q renders as \x escapes no JSON parser accepts — round-trip through
// encoding/json, and printable ASCII renders exactly as %q renders it.
func TestJSONStringSurvivesAParser(t *testing.T) {
	for _, s := range []string{"", "plain", `q"b\s`, "\x01ctl\x1f", "nl\n\ttab\r", "bad\xffutf8\xfe", "é✓\uFFFD"} {
		quoted := fmt.Sprint(JSONString(s))
		var got string
		if err := json.Unmarshal([]byte(quoted), &got); err != nil {
			t.Errorf("JSONString(%q) = %s: %v", s, quoted, err)
			continue
		}
		if want := strings.ToValidUTF8(s, "\uFFFD"); got != want {
			t.Errorf("JSONString(%q) decoded to %q, want %q", s, got, want)
		}
	}
	for c := byte(0x20); c < 0x7f; c++ {
		if s := "a" + string(c) + "b"; fmt.Sprint(JSONString(s)) != fmt.Sprintf("%q", s) {
			t.Errorf("JSONString(%q) = %v, %%q gives %q", s, JSONString(s), s)
		}
	}
}
