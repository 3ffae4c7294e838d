package slo

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/tsdb"
)

// feed drives cumulative good/total counters into a fresh store from
// per-epoch error ratios, 100 units of traffic per epoch.
func feed(errs []float64) *tsdb.Store {
	db := tsdb.New(tsdb.Config{})
	var good, total float64
	for i, e := range errs {
		total += 100
		good += 100 * (1 - e)
		ep := i + 1
		db.Observe("good", tsdb.Point{Epoch: ep, T: 0.5 * float64(ep), V: good})
		db.Observe("total", tsdb.Point{Epoch: ep, T: 0.5 * float64(ep), V: total})
	}
	return db
}

func run(db *tsdb.Store, spec Spec, epochs int) (*Engine, []Transition) {
	e := NewEngine(db, []Spec{spec})
	var all []Transition
	for ep := 1; ep <= epochs; ep++ {
		all = append(all, e.Evaluate(ep, 0.5*float64(ep))...)
	}
	return e, all
}

func TestBurnRateLifecycle(t *testing.T) {
	// Objective 0.9 → budget 0.1. Errors: quiet, then a sustained 50%
	// error episode (burn 5), then recovery.
	errs := []float64{0, 0, 0, 0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0, 0}
	spec := Spec{Name: "qos", Good: "good", Total: "total", Objective: 0.9,
		Rules:         []BurnRule{{LongEpochs: 4, ShortEpochs: 2, Burn: 2, Severity: "page"}},
		PendingEpochs: 1, ResolveEpochs: 2}
	e, trs := run(feed(errs), spec, len(errs))
	var edges []string
	for _, tr := range trs {
		edges = append(edges, tr.To)
	}
	want := []string{"pending", "firing", "resolved"}
	if strings.Join(edges, ",") != strings.Join(want, ",") {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	// Long window (4 epochs) needs 2 error epochs for ΔG/ΔT = (200+50+50)/400
	// → ratio 0.25 → burn 2.5 ≥ 2; short window (2) is already at burn 5.
	if trs[0].Epoch != 5 {
		t.Errorf("pending at epoch %d, want 5", trs[0].Epoch)
	}
	if trs[1].To != "firing" || trs[1].Epoch != 5 || trs[1].Severity != "page" {
		t.Errorf("firing edge = %+v", trs[1])
	}
	if l := e.Log(); l.Fired != 1 || l.Resolved != 1 || e.Firing("qos") {
		t.Errorf("fired=%d resolved=%d firing=%v", l.Fired, l.Resolved, e.Firing("qos"))
	}
}

// TestShortWindowResets: after the incident ends, the short window clears
// immediately even while the long window still reads hot — the alert
// resolves on short-window hysteresis instead of waiting out the long tail.
func TestShortWindowResets(t *testing.T) {
	errs := []float64{0, 0, 0.8, 0.8, 0.8, 0.8, 0, 0, 0, 0}
	spec := Spec{Name: "qos", Good: "good", Total: "total", Objective: 0.9,
		Rules:         []BurnRule{{LongEpochs: 6, ShortEpochs: 1, Burn: 3}},
		PendingEpochs: 1, ResolveEpochs: 2}
	_, trs := run(feed(errs), spec, len(errs))
	var resolved *Transition
	for i := range trs {
		if trs[i].To == "resolved" {
			resolved = &trs[i]
		}
	}
	if resolved == nil {
		t.Fatal("alert never resolved")
	}
	// Last error epoch is 6; short window clears at 7, hysteresis of 2
	// clear epochs resolves at 8 — even though the 6-epoch long window
	// still spans the episode until epoch 12.
	if resolved.Epoch != 8 {
		t.Errorf("resolved at epoch %d, want 8", resolved.Epoch)
	}
}

// TestBlipRejected: a single-epoch error blip must not fire a multi-window
// rule (long window absorbs it) but WOULD fire a naive 1-epoch static
// threshold with no pending damping — the asymmetry figslo measures.
func TestBlipRejected(t *testing.T) {
	errs := []float64{0, 0.6, 0, 0, 0, 0, 0, 0}
	burn := Spec{Name: "burn", Good: "good", Total: "total", Objective: 0.9,
		Rules:         []BurnRule{{LongEpochs: 4, ShortEpochs: 1, Burn: 2}},
		PendingEpochs: 1}
	_, trs := run(feed(errs), burn, len(errs))
	for _, tr := range trs {
		if tr.To == "firing" {
			t.Fatalf("multi-window rule fired on a blip: %+v", tr)
		}
	}
	static := Spec{Name: "static", Good: "good", Total: "total", Objective: 0.9,
		Rules:         []BurnRule{{LongEpochs: 1, ShortEpochs: 1, Burn: 2}},
		PendingEpochs: 1}
	_, strs := run(feed(errs), static, len(errs))
	fired := false
	for _, tr := range strs {
		fired = fired || tr.To == "firing"
	}
	if !fired {
		t.Fatal("1-epoch static rule should false-fire on the blip")
	}
}

func TestPendingHysteresisAndFlap(t *testing.T) {
	// Alternating trigger/clear epochs with PendingEpochs 3 must never fire.
	errs := []float64{0.9, 0, 0.9, 0, 0.9, 0, 0.9, 0}
	spec := Spec{Name: "s", Good: "good", Total: "total", Objective: 0.9,
		Rules:         []BurnRule{{LongEpochs: 1, ShortEpochs: 1, Burn: 2}},
		PendingEpochs: 3}
	e, trs := run(feed(errs), spec, len(errs))
	for _, tr := range trs {
		if tr.To == "firing" {
			t.Fatalf("flapping signal fired through pending hysteresis: %+v", tr)
		}
	}
	if e.Fired() != 0 {
		t.Errorf("Fired = %d", e.Fired())
	}
}

func TestNoTrafficNeverTriggers(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	spec := Spec{Name: "s", Good: "good", Total: "total", Objective: 0.99,
		Rules: []BurnRule{{LongEpochs: 2, Burn: 1}}}
	e := NewEngine(db, []Spec{spec})
	for ep := 1; ep <= 3; ep++ {
		if trs := e.Evaluate(ep, float64(ep)); len(trs) != 0 {
			t.Fatalf("empty store produced transitions: %+v", trs)
		}
	}
	// Traffic with zero errors against objective 1.0 is still clean...
	db.Observe("good", tsdb.Point{Epoch: 4, T: 4, V: 100})
	db.Observe("total", tsdb.Point{Epoch: 4, T: 4, V: 100})
	if trs := e.Evaluate(4, 4); len(trs) != 0 {
		t.Fatalf("clean traffic triggered: %+v", trs)
	}
}

func TestExportsDeterministic(t *testing.T) {
	mk := func() *Engine {
		errs := []float64{0, 0.5, 0.5, 0.5, 0, 0, 0}
		spec := Spec{Name: "qos", Good: "good", Total: "total", Objective: 0.9,
			Rules: []BurnRule{{LongEpochs: 2, ShortEpochs: 1, Burn: 2, Severity: "page"}}}
		e, _ := run(feed(errs), spec, len(errs))
		return e
	}
	a, b := mk(), mk()
	if a.Log().JSON() != b.Log().JSON() {
		t.Error("alert logs differ across identical runs")
	}
	if a.StatusJSON() != b.StatusJSON() {
		t.Error("status differs across identical runs")
	}
	logJSON := a.Log().JSON()
	for _, want := range []string{`"fired": 1`, `"to": "firing"`, `"severity": "page"`} {
		if !strings.Contains(logJSON, want) {
			t.Errorf("alert log missing %q:\n%s", want, logJSON)
		}
	}
	if !strings.Contains(a.StatusJSON(), `"name": "qos"`) {
		t.Errorf("status missing spec:\n%s", a.StatusJSON())
	}
}

// TestExportsSurviveAParser: a spec name or capture reason carrying a
// control byte still renders JSON that encoding/json accepts.
func TestExportsSurviveAParser(t *testing.T) {
	name := "qos\x01\x7f"
	spec := Spec{Name: name, Good: "good", Total: "total", Objective: 0.9,
		Rules: []BurnRule{{LongEpochs: 2, ShortEpochs: 1, Burn: 2, Severity: "page"}}}
	e, _ := run(feed([]float64{0, 0.5, 0.5, 0.5}), spec, 4)
	rec := NewRecorder(1)
	b := rec.Capture("alert:"+name, 4, 2, []Section{{Name: name, JSON: e.StatusJSON()}})
	for what, doc := range map[string]string{"status": e.StatusJSON(), "alert log": e.Log().JSON(), "bundle": b.JSON()} {
		var v any
		if err := json.Unmarshal([]byte(doc), &v); err != nil {
			t.Errorf("%s does not parse: %v\n%s", what, err, doc)
		} else if !strings.Contains(fmt.Sprint(v), name) {
			t.Errorf("%s lost the name %q:\n%s", what, name, doc)
		}
	}
}

func TestRecorderBoundedDropNewest(t *testing.T) {
	rec := NewRecorder(2)
	for i := 1; i <= 4; i++ {
		if b := rec.Capture("alert:qos", i, float64(i), []Section{{Name: "x", JSON: "{}"}}); (b == nil) != (i > 2) {
			t.Errorf("capture %d returned %+v; only captures past the bound drop", i, b)
		}
	}
	bs := rec.Bundles()
	if len(bs) != 2 || bs[0].Seq != 1 || bs[1].Seq != 2 {
		t.Fatalf("bundles = %+v, want seqs 1,2", bs)
	}
	out := bs[0].JSON()
	for _, want := range []string{`"seq": 1`, `"reason": "alert:qos"`, `"x": {}`} {
		if !strings.Contains(out, want) {
			t.Errorf("bundle missing %q:\n%s", want, out)
		}
	}
}

// TestNewEngineLeavesSpecsAlone: defaulting a rule's short window happens
// on the engine's copy, not through the caller's Rules slice.
func TestNewEngineLeavesSpecsAlone(t *testing.T) {
	specs := []Spec{{Name: "qos", Good: "good", Total: "total", Objective: 0.9,
		Rules: []BurnRule{{LongEpochs: 24, Burn: 2, Severity: "page"}}}}
	NewEngine(tsdb.New(tsdb.Config{}), specs)
	if got := specs[0].Rules[0].ShortEpochs; got != 0 {
		t.Errorf("caller's rule ShortEpochs = %d after NewEngine, want 0", got)
	}
}
