package tsdb

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestRingDropsOldest(t *testing.T) {
	d := New(Config{Capacity: 3})
	for e := 1; e <= 5; e++ {
		d.Observe("x", Point{Epoch: e, T: float64(e), V: float64(e * 10)})
	}
	pts := d.Range("x", 0, 99)
	if len(pts) != 3 || pts[0].Epoch != 3 || pts[2].Epoch != 5 {
		t.Fatalf("retained = %+v, want epochs 3..5", pts)
	}
	if pts[2].V != 50 {
		t.Errorf("newest = %+v, want V 50", pts[2])
	}
	if d.LastEpoch() != 5 {
		t.Errorf("LastEpoch = %d", d.LastEpoch())
	}
}

func TestSampleSumsAcrossRegistriesInOrder(t *testing.T) {
	mk := func(c uint64, g float64) *telemetry.Registry {
		r := telemetry.New(telemetry.Config{})
		r.Counter("fleet", "moves_total", "").Add(c)
		r.Gauge("fleet", "load", "").Set(g)
		h := r.Histogram("fleet", "qos", "", []float64{0.5, 0.9, 1})
		h.Observe(0.7)
		return r
	}
	d := New(Config{Quantiles: []float64{0.5}})
	d.Sample(1, 0.5, mk(3, 0.25), mk(4, 0.5))
	if v, ok := d.Delta("protean_fleet_moves_total", 1, 1); !ok || v != 7 {
		t.Errorf("counter sum = %v, %v (want 7)", v, ok)
	}
	if p := d.Range("protean_fleet_load", 1, 1); len(p) != 1 || p[0].V != 0.75 {
		t.Errorf("gauge sum = %+v", p)
	}
	if len(d.Range("protean_fleet_qos:p50", 1, 1)) != 1 {
		t.Error("histogram quantile series missing")
	}
	names := d.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	// Empty histograms sample no quantile points.
	r := telemetry.New(telemetry.Config{})
	r.Histogram("fleet", "empty", "", []float64{1})
	d.Sample(2, 1.0, r)
	if len(d.Range("protean_fleet_empty:p50", 0, 2)) != 0 {
		t.Error("empty histogram produced a quantile point")
	}
}

func TestDeltaAndRateZeroOrigin(t *testing.T) {
	d := New(Config{})
	for e := 1; e <= 4; e++ {
		d.Observe("c", Point{Epoch: e, T: 0.5 * float64(e), V: float64(e * 100)})
	}
	// In-window delta: V(4)-V(2).
	if v, ok := d.Delta("c", 4, 2); !ok || v != 200 {
		t.Errorf("Delta(4,2) = %v, %v, want 200", v, ok)
	}
	// Window reaching before the first point: implicit zero origin.
	if v, ok := d.Delta("c", 2, 10); !ok || v != 200 {
		t.Errorf("Delta(2,10) = %v, %v, want 200 (zero origin)", v, ok)
	}
	// No point at the end epoch.
	if _, ok := d.Delta("c", 9, 1); ok {
		t.Error("Delta at missing epoch should fail")
	}
}

func TestWriteJSONDeterministicAndWindowed(t *testing.T) {
	build := func() *Store {
		d := New(Config{})
		r := telemetry.New(telemetry.Config{})
		r.Counter("a", "x_total", "").Add(1)
		r.Gauge("b", "g", "").Set(2.5)
		for e := 1; e <= 4; e++ {
			d.Sample(e, 0.5*float64(e), r)
		}
		return d
	}
	json := func(d *Store) string {
		var b strings.Builder
		d.WriteJSON(&b) //nolint:errcheck // strings.Builder never errors
		return b.String()
	}
	a, b := json(build()), json(build())
	if a != b {
		t.Fatal("identical stores exported different bytes")
	}
	if !strings.Contains(a, `"protean_a_x_total": [{"e":1,`) {
		t.Errorf("unexpected export shape:\n%s", a)
	}
	var w strings.Builder
	if err := build().WriteWindowJSON(&w, 2); err != nil {
		t.Fatal(err)
	}
	win := w.String()
	if strings.Contains(win, `{"e":1,`) || strings.Contains(win, `{"e":2,`) {
		t.Errorf("window kept points outside trailing 2 epochs:\n%s", win)
	}
	if !strings.Contains(win, `{"e":3,`) || !strings.Contains(win, `{"e":4,`) {
		t.Errorf("window dropped in-range points:\n%s", win)
	}
}

func TestQuantLabel(t *testing.T) {
	for q, want := range map[float64]string{0.5: "p50", 0.95: "p95", 0.99: "p99", 0.999: "p99.9", 1: "p100"} {
		if got := quantLabel(q); got != want {
			t.Errorf("quantLabel(%v) = %q, want %q", q, got, want)
		}
	}
}
