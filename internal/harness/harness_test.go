package harness

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// bench returns a runner at the smallest scale; most tests share it via
// TestMain-like memoization (package-level runner) to reuse solo and pair
// caches across tests.
var shared = NewRunner(BenchScale())

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v / 100
}

func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestSoloMemoized(t *testing.T) {
	a, err := shared.Solo("libquantum")
	if err != nil {
		t.Fatalf("Solo: %v", err)
	}
	b, err := shared.Solo("libquantum")
	if err != nil {
		t.Fatalf("Solo: %v", err)
	}
	if a != b {
		t.Error("solo measurement not memoized")
	}
	if a.IPS <= 0 || a.BPS <= 0 || a.IPS <= a.BPS {
		t.Errorf("implausible solo rates: %+v", a)
	}
}

func TestTableRendering(t *testing.T) {
	tab := shared.Table1()
	out := tab.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Extrospective") {
		t.Errorf("render missing content:\n%s", out)
	}
	if len(tab.Rows) != 5 {
		t.Errorf("Table I rows = %d, want 5", len(tab.Rows))
	}
	t2 := shared.Table2()
	if len(t2.Rows) != 26 {
		t.Errorf("Table II rows = %d, want 26 catalog entries", len(t2.Rows))
	}
	t3 := shared.Table3()
	if len(t3.Rows) != 4 {
		t.Errorf("Table III rows = %d, want 4 (LS + 3 mixes)", len(t3.Rows))
	}
}

func TestFigure2VariantShapes(t *testing.T) {
	tab, err := shared.Figure2()
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 variants", len(tab.Rows))
	}
	counts := map[string]int{"<1,1>": 2, "<1,0>": 1, "<0,1>": 1, "<0,0>": 0}
	for _, row := range tab.Rows {
		want := counts[row[0]]
		got := strings.Count(row[1], "prefetch")
		if got != want {
			t.Errorf("%s: %d prefetches, want %d: %s", row[0], got, want, row[1])
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	tab, err := shared.Figure8()
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 hosts", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		full, _ := strconv.Atoi(row[1])
		active, _ := strconv.Atoi(row[2])
		maxd, _ := strconv.Atoi(row[3])
		if !(full >= active && active >= maxd && maxd > 0) {
			t.Errorf("%s: heuristic stages not monotone: %v", row[0], row)
		}
	}
	// soplex must show the paper's dramatic reduction (15666 → ~57).
	for _, row := range tab.Rows {
		if row[0] != "soplex" {
			continue
		}
		full, _ := strconv.Atoi(row[1])
		maxd, _ := strconv.Atoi(row[3])
		if full != 15666 {
			t.Errorf("soplex full = %d, want 15666", full)
		}
		if maxd > 80 {
			t.Errorf("soplex max-depth = %d, want ~57", maxd)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	tab, err := shared.Figure4()
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	mean := tab.Rows[len(tab.Rows)-1]
	if mean[0] != "Mean" {
		t.Fatalf("last row is %q, want Mean", mean[0])
	}
	protean := parseRatio(t, mean[1])
	dr := parseRatio(t, mean[2])
	if protean > 1.02 {
		t.Errorf("protean mean overhead %.3fx, want < 1.02x (paper <1%%)", protean)
	}
	if protean < 0.97 {
		t.Errorf("protean mean %.3fx below native: measurement broken", protean)
	}
	if dr < 1.05 {
		t.Errorf("DynamoRIO mean %.3fx, want noticeable overhead (paper ~1.18x)", dr)
	}
	if dr < protean {
		t.Error("DynamoRIO should cost more than protean code")
	}
}

func TestFigure5And6Shape(t *testing.T) {
	tab5, err := shared.Figure5()
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	for _, row := range tab5.Rows {
		for i := 1; i < len(row); i++ {
			s := parseRatio(t, row[i])
			if s > 1.06 {
				t.Errorf("%s separate-core stress col %d: %.3fx, want ~1.0", row[0], i, s)
			}
		}
	}
	tab6, err := shared.Figure6()
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	// Same-core at the fastest interval must hurt; at the slowest it must
	// not; separate core never hurts.
	first, last := tab6.Rows[0], tab6.Rows[len(tab6.Rows)-1]
	if s := parseRatio(t, first[1]); s < 1.15 {
		t.Errorf("same-core at 5ms: %.3fx, want clear slowdown", s)
	}
	if s := parseRatio(t, last[1]); s > 1.05 {
		t.Errorf("same-core at 5000ms: %.3fx, want negligible", s)
	}
	for _, row := range tab6.Rows {
		if s := parseRatio(t, row[2]); s > 1.06 {
			t.Errorf("separate core at %s: %.3fx, want negligible", row[0], s)
		}
	}
}

func TestRunPairPC3DAndFigure7(t *testing.T) {
	pr, err := shared.RunPair("libquantum", "web-search", SystemPC3D, 0.95)
	if err != nil {
		t.Fatalf("RunPair: %v", err)
	}
	if pr.QoS < 0.85 {
		t.Errorf("QoS = %.3f at 0.95 target", pr.QoS)
	}
	if pr.Utilization <= 0.2 || pr.Utilization > 1.2 {
		t.Errorf("utilization = %.3f out of plausible range", pr.Utilization)
	}
	if pr.RuntimeFrac <= 0 || pr.RuntimeFrac > 0.05 {
		t.Errorf("runtime fraction = %.4f", pr.RuntimeFrac)
	}
	// Memoized.
	pr2, err := shared.RunPair("libquantum", "web-search", SystemPC3D, 0.95)
	if err != nil || pr2 != pr {
		t.Error("pair result not memoized")
	}

	tab, err := shared.Figure7()
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	for _, row := range tab.Rows {
		frac := parsePct(t, row[1])
		if frac <= 0 || frac > 0.05 {
			t.Errorf("%s: runtime fraction %s", row[0], row[1])
		}
	}
}

// TestRunPairRejectsNonsense: a QoS target outside (0, 1] or a duration the
// machine cannot run (cmd/pc3d -measure 0 would report "+Inf% of solo
// throughput") is an error before any calibration or process attach.
func TestRunPairRejectsNonsense(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		mutate func(*Scale)
		target float64
		want   string
	}{
		{"target zero", nil, 0, "QoS target"},
		{"target above one", nil, 7, "QoS target"},
		{"target negative", nil, -0.5, "QoS target"},
		{"target NaN", nil, nan, "QoS target"},
		{"measure zero", func(sc *Scale) { sc.MeasureSeconds = 0 }, 0.95, "MeasureSeconds"},
		{"measure NaN", func(sc *Scale) { sc.MeasureSeconds = nan }, 0.95, "MeasureSeconds"},
		{"measure infinite", func(sc *Scale) { sc.MeasureSeconds = inf }, 0.95, "MeasureSeconds"},
		{"settle negative", func(sc *Scale) { sc.SettleSeconds = -1 }, 0.95, "SettleSeconds"},
		{"settle NaN", func(sc *Scale) { sc.SettleSeconds = nan }, 0.95, "SettleSeconds"},
		{"settle infinite", func(sc *Scale) { sc.SettleSeconds = inf }, 0.95, "SettleSeconds"},
		{"solo zero", func(sc *Scale) { sc.SoloSeconds = 0 }, 0.95, "SoloSeconds"},
		{"solo negative", func(sc *Scale) { sc.SoloSeconds = -2 }, 0.95, "SoloSeconds"},
	} {
		sc := BenchScale()
		if tc.mutate != nil {
			tc.mutate(&sc)
		}
		r := NewRunner(sc)
		_, err := r.RunPair("libquantum", "web-search", SystemPC3D, tc.target)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
		if strings.Contains(fmt.Sprint(err), "\n") {
			t.Errorf("%s: error spans lines: %q", tc.name, err)
		}
		if s, p := r.soloRuns.Load(), r.pairRuns.Load(); s != 0 || p != 0 || len(r.pairs.m) != 0 {
			t.Errorf("%s: %d solo runs, %d pair runs, %d memo cells; want none", tc.name, s, p, len(r.pairs.m))
		}
	}
	// Solo divides by its window too: the same scales are errors there,
	// before the memo is touched.
	for _, solo := range []float64{0, -2, nan, inf} {
		sc := BenchScale()
		sc.SoloSeconds = solo
		r := NewRunner(sc)
		rates, err := r.Solo("libquantum")
		if err == nil || !strings.Contains(err.Error(), "SoloSeconds") {
			t.Errorf("Solo with SoloSeconds = %v: rates %+v, err = %v; want one naming SoloSeconds", solo, rates, err)
		}
		if r.soloRuns.Load() != 0 || len(r.solo.m) != 0 {
			t.Errorf("Solo with SoloSeconds = %v: %d runs, %d memo cells; want none", solo, r.soloRuns.Load(), len(r.solo.m))
		}
	}
	// A zero settle is legal: validate accepts it (and every stock scale).
	zero := BenchScale()
	zero.SettleSeconds = 0
	for _, sc := range []Scale{zero, BenchScale(), QuickScale(), FullScale()} {
		if err := sc.validate(); err != nil {
			t.Errorf("%s scale (settle %v): %v", sc.Name, sc.SettleSeconds, err)
		}
	}
}

func TestFigure9MeetsTargets(t *testing.T) {
	figs := gridFigures()
	if len(figs) != 6 || figs[0].n != 9 || figs[3].n != 12 || figs[0].webservice != "web-search" || figs[3].webservice != "web-search" {
		t.Fatalf("grid figures = %+v, want Figures 9-14 with web-search first", figs)
	}
	tab, err := figs[0].table(shared)
	if err != nil {
		t.Fatalf("Figure 9: %v", err)
	}
	qtab, err := figs[3].table(shared)
	if err != nil {
		t.Fatalf("Figure 12: %v", err)
	}
	if tab.ID != "Figure 9" || qtab.ID != "Figure 12" {
		t.Errorf("table IDs %q, %q", tab.ID, qtab.ID)
	}
	targets := shared.Scale().targets()
	for _, row := range qtab.Rows {
		for i, tgt := range targets {
			q := parsePct(t, row[i+1])
			if q < tgt-0.08 {
				t.Errorf("%s at %.0f%% target: QoS %.3f", row[0], tgt*100, q)
			}
		}
	}
	// Utilization rows exist for every host plus a mean; the QoS figure has
	// no mean row.
	hosts := len(shared.Scale().hosts())
	if len(tab.Rows) != hosts+1 || tab.Rows[hosts][0] != "Mean" || len(qtab.Rows) != hosts {
		t.Errorf("utilization rows = %d, QoS rows = %d for %d hosts", len(tab.Rows), len(qtab.Rows), hosts)
	}
}

func TestFigure15PC3DWins(t *testing.T) {
	tables, err := shared.Figure15()
	if err != nil {
		t.Fatalf("Figure15: %v", err)
	}
	if len(tables) != 2*len(shared.Scale().targets()) {
		t.Fatalf("tables = %d", len(tables))
	}
	util := tables[0]
	mean := util.Rows[len(util.Rows)-1]
	if mean[0] != "Mean" {
		t.Fatalf("last row %q", mean[0])
	}
	if v := parseRatio(t, mean[3]); v < 1.0 {
		t.Errorf("PC3D/ReQoS mean = %.3fx, want >= 1.0x", v)
	}
	// QoS table: both systems near target.
	qtab := tables[1]
	for _, row := range qtab.Rows {
		if q := parsePct(t, row[1]); q < 0.82 {
			t.Errorf("%s PC3D QoS %.3f", row[0], q)
		}
		if q := parsePct(t, row[2]); q < 0.82 {
			t.Errorf("%s ReQoS QoS %.3f", row[0], q)
		}
	}
}

func TestFigure16Dynamics(t *testing.T) {
	s, err := shared.SummarizeTrace(SystemPC3D)
	if err != nil {
		t.Fatalf("SummarizeTrace: %v", err)
	}
	// During the low-load third, PC3D reverts to the original variant at
	// full speed.
	if s.LowLoadUtil < 0.85 {
		t.Errorf("low-load host util = %.3f, want ~1 (original variant, no nap)", s.LowLoadUtil)
	}
	if s.HighLoadUtil >= s.LowLoadUtil {
		t.Errorf("high-load util %.3f should be below low-load util %.3f", s.HighLoadUtil, s.LowLoadUtil)
	}
	if s.HighLoadQoS < 0.90 {
		t.Errorf("webservice mean high-load QoS = %.3f", s.HighLoadQoS)
	}
	// And PC3D must keep the host faster than ReQoS during high load.
	rq, err := shared.SummarizeTrace(SystemReQoS)
	if err != nil {
		t.Fatalf("SummarizeTrace(reqos): %v", err)
	}
	if s.HighLoadUtil <= rq.HighLoadUtil {
		t.Errorf("PC3D high-load util %.3f <= ReQoS %.3f", s.HighLoadUtil, rq.HighLoadUtil)
	}
}

func TestFigureTimeline(t *testing.T) {
	tab, err := shared.FigureTimeline()
	if err != nil {
		t.Fatalf("FigureTimeline: %v", err)
	}
	if len(tab.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(tab.Rows))
	}
	sumCol := func(col int) int {
		var n int
		for _, row := range tab.Rows {
			v, err := strconv.Atoi(row[col])
			if err != nil {
				t.Fatalf("parse %q: %v", row[col], err)
			}
			n += v
		}
		return n
	}
	// The PC3D trace run searches at every load step, so the event trace
	// must show compile and dispatch activity, and every compile that
	// started also finished or failed.
	started, finished, failed := sumCol(1), sumCol(2), sumCol(3)
	if started == 0 || sumCol(4) == 0 {
		t.Errorf("timeline shows no activity: %d compiles, %d dispatches", started, sumCol(4))
	}
	if finished+failed > started {
		t.Errorf("compiles finished+failed = %d+%d, exceeds started = %d", finished, failed, started)
	}
	for _, row := range tab.Rows {
		if _, err := strconv.ParseFloat(row[7], 64); err != nil {
			t.Errorf("nap column %q not a float: %v", row[7], err)
		}
	}
}

func TestFigure17And18(t *testing.T) {
	t17, err := shared.Figure17()
	if err != nil {
		t.Fatalf("Figure17: %v", err)
	}
	if len(t17.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 webservices x 3 mixes)", len(t17.Rows))
	}
	t18, err := shared.Figure18()
	if err != nil {
		t.Fatalf("Figure18: %v", err)
	}
	for _, row := range t18.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[1], err)
		}
		// The paper reports 18-34%; our simulated utilizations run higher
		// (see EXPERIMENTS.md), so accept up to ~1.8.
		if v < 1.0 || v > 1.8 {
			t.Errorf("%s: efficiency ratio %.2f outside plausible band", row[0], v)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	tab, err := shared.Figure3()
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d, want 11 nap points", len(tab.Rows))
	}
	// Monotonicity: app perf falls as nap rises (both variants).
	for col := range []int{0, 1} {
		idx := 1 + col*3
		prev := 2.0
		for _, row := range tab.Rows {
			v := parsePct(t, row[idx])
			if v > prev+0.08 {
				t.Errorf("variant %d: perf rose with nap (%v -> %v)", col, prev, v)
			}
			prev = v
		}
	}
	// Variant 1 meets QoS at a lower nap than variant 0.
	firstMet := func(col int) int {
		for i, row := range tab.Rows {
			if row[col] == "yes" {
				return i
			}
		}
		return len(tab.Rows)
	}
	if m1, m0 := firstMet(6), firstMet(3); m1 >= m0 {
		t.Errorf("variant 1 meets QoS at nap index %d, variant 0 at %d; want v1 earlier", m1, m0)
	}
}

func TestArtifactsRegistry(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table3",
		"fig17", "fig18", "fig17sim", "figchaos", "figmigrate", "figchaosmigrate", "figslo",
		"figtimeline", "figspans",
	}
	arts := Artifacts()
	if len(arts) != 27 {
		t.Errorf("artifacts = %d, want 27", len(arts))
	}
	var got []string
	for _, a := range arts {
		got = append(got, a.Key)
		if a.Name == "" || a.Run == nil {
			t.Errorf("%s: incomplete artifact %+v", a.Key, a)
		}
		if b, err := ArtifactByKey(a.Key); err != nil || b.Name != a.Name {
			t.Errorf("ArtifactByKey(%s) = %q, %v", a.Key, b.Name, err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("artifact keys (paper order):\n got %v\nwant %v", got, want)
	}
	if a, _ := ArtifactByKey("fig13"); a.Name != "Figure 13" {
		t.Errorf("fig13 is %q, want Figure 13", a.Name)
	}
	if _, err := ArtifactByKey("nope"); err == nil {
		t.Error("unknown key accepted")
	}
}
