// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation, plus ablation benches for
// the design choices called out in DESIGN.md §4.
//
// Artifact benches regenerate the corresponding table/figure at BenchScale
// (shape-preserving, reduced rosters and durations) and report the headline
// quantity of each artifact as a custom metric. A process-wide Runner
// memoizes solo calibrations and shared pair runs, exactly as
// cmd/experiments does, so later benches reuse earlier benches' runs —
// per-bench wall time therefore reflects the artifact's *incremental* cost
// in the shared pipeline. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pc3d"
	"repro/internal/pcc"
	"repro/internal/pcsp"
	"repro/internal/phase"
	"repro/internal/progbin"
	"repro/internal/qos"
	"repro/internal/workload"
)

func compileWithPolicy(app string, policy pcc.EdgePolicy) (*progbin.Binary, error) {
	return pcc.Compile(workload.MustByName(app).Module(), pcc.Options{Protean: true, Policy: policy})
}

func compileModule(mod *ir.Module) (*progbin.Binary, error) {
	return pcc.Compile(mod, pcc.Options{})
}

var benchRunner = harness.NewRunner(harness.BenchScale())

// runArtifact regenerates one artifact per iteration.
func runArtifact(b *testing.B, key string) []*harness.Table {
	b.Helper()
	a, err := harness.ArtifactByKey(key)
	if err != nil {
		b.Fatal(err)
	}
	var tables []*harness.Table
	for i := 0; i < b.N; i++ {
		tables, err = a.Run(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("artifact produced no rows")
		}
	}
	return tables
}

func lastCell(t *harness.Table, col int) string {
	return t.Rows[len(t.Rows)-1][col]
}

func parseNum(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func BenchmarkTable1Comparison(b *testing.B)   { runArtifact(b, "table1") }
func BenchmarkTable2Applications(b *testing.B) { runArtifact(b, "table2") }
func BenchmarkTable3Mixes(b *testing.B)        { runArtifact(b, "table3") }

func BenchmarkFigure2Variants(b *testing.B) { runArtifact(b, "fig2") }

func BenchmarkFigure3NapSweep(b *testing.B) {
	runArtifact(b, "fig3")
}

func BenchmarkFigure4VirtualizationOverhead(b *testing.B) {
	tables := runArtifact(b, "fig4")
	mean := tables[0].Rows[len(tables[0].Rows)-1]
	b.ReportMetric(parseNum(b, mean[1]), "protean-slowdown")
	b.ReportMetric(parseNum(b, mean[2]), "dynamorio-slowdown")
}

func BenchmarkFigure5StressSeparateCore(b *testing.B) { runArtifact(b, "fig5") }

func BenchmarkFigure6StressSameVsSeparate(b *testing.B) {
	tables := runArtifact(b, "fig6")
	b.ReportMetric(parseNum(b, tables[0].Rows[0][1]), "samecore-5ms-slowdown")
	b.ReportMetric(parseNum(b, lastCell(tables[0], 1)), "samecore-5000ms-slowdown")
}

func BenchmarkFigure7RuntimeCycles(b *testing.B) {
	tables := runArtifact(b, "fig7")
	var sum float64
	for _, row := range tables[0].Rows {
		sum += parseNum(b, row[1])
	}
	b.ReportMetric(sum/float64(len(tables[0].Rows)), "runtime-pct-of-server")
}

func BenchmarkFigure8Heuristics(b *testing.B) { runArtifact(b, "fig8") }

func BenchmarkFigure9UtilWebSearch(b *testing.B) {
	tables := runArtifact(b, "fig9")
	b.ReportMetric(parseNum(b, lastCell(tables[0], 1)), "mean-util-pct")
}

func BenchmarkFigure10UtilMediaStreaming(b *testing.B) {
	tables := runArtifact(b, "fig10")
	b.ReportMetric(parseNum(b, lastCell(tables[0], 1)), "mean-util-pct")
}

func BenchmarkFigure11UtilGraphAnalytics(b *testing.B) {
	tables := runArtifact(b, "fig11")
	b.ReportMetric(parseNum(b, lastCell(tables[0], 1)), "mean-util-pct")
}

func BenchmarkFigure12QoSWebSearch(b *testing.B)      { runArtifact(b, "fig12") }
func BenchmarkFigure13QoSMediaStreaming(b *testing.B) { runArtifact(b, "fig13") }
func BenchmarkFigure14QoSGraphAnalytics(b *testing.B) { runArtifact(b, "fig14") }

func BenchmarkFigure15PC3DvsReQoS(b *testing.B) {
	tables := runArtifact(b, "fig15")
	b.ReportMetric(parseNum(b, lastCell(tables[0], 3)), "pc3d-over-reqos")
}

func BenchmarkFigure16FluctuatingLoad(b *testing.B) { runArtifact(b, "fig16") }

func BenchmarkFigure17ServerCounts(b *testing.B) { runArtifact(b, "fig17") }

func BenchmarkFigure18EnergyEfficiency(b *testing.B) {
	tables := runArtifact(b, "fig18")
	var sum float64
	for _, row := range tables[0].Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
	b.ReportMetric(sum/float64(len(tables[0].Rows)), "mean-efficiency-ratio")
}

// BenchmarkFigureMigrate regenerates the migration artifact and reports
// the measured p99 QoS-tail lift (on minus off, in QoS points).
func BenchmarkFigureMigrate(b *testing.B) {
	tables := runArtifact(b, "figmigrate")
	off, err := strconv.ParseFloat(tables[0].Rows[0][3], 64)
	if err != nil {
		b.Fatal(err)
	}
	on, err := strconv.ParseFloat(tables[0].Rows[1][3], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(on-off, "p99-tail-lift")
}

// ---------------------------------------------------------------- ablations

// BenchmarkAblationEdgePolicy quantifies the virtualization-policy design
// choice (DESIGN.md §4): the paper's multi-block-callee policy versus
// virtualizing every call. More EVT indirection costs more.
func BenchmarkAblationEdgePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		insts := ablationEdgePolicy(b)
		b.ReportMetric(insts["all-calls"]/insts["multi-block"], "allcalls-vs-multiblock")
		b.ReportMetric(insts["no-edges"]/insts["multi-block"], "noedges-vs-multiblock")
	}
}

// BenchmarkAblationNTPolicy compares the shared-LLC non-temporal policies:
// full bypass (default) versus LRU-insertion demotion. Reports, for an
// all-hints libquantum against er-naive, the victim's QoS and the host's
// own throughput relative to its unhinted co-located self under each
// policy — the pressure-relief vs self-cost trade-off.
func BenchmarkAblationNTPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vBypass, hBypass := ablationNTPolicy(b, cache.NTBypass)
		vDemote, hDemote := ablationNTPolicy(b, cache.NTDemote)
		b.ReportMetric(vBypass, "victim-qos-bypass")
		b.ReportMetric(vDemote, "victim-qos-demote")
		b.ReportMetric(hBypass, "host-selfperf-bypass")
		b.ReportMetric(hDemote, "host-selfperf-demote")
	}
}

// BenchmarkAblationSearchBounds compares Algorithm 1 with and without its
// nap-bound reuse, reporting the number of nap probes each needs to
// converge (the bound reuse is what keeps the search O(n) cheap).
func BenchmarkAblationSearchBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationSearch(b, false)
		without := ablationSearch(b, true)
		b.ReportMetric(float64(with), "nap-probes-with-bounds")
		b.ReportMetric(float64(without), "nap-probes-without-bounds")
		if without < with {
			b.Fatalf("bounds reuse should reduce probes: %d vs %d", with, without)
		}
	}
}

// BenchmarkAblationFluxCadence sweeps the flux probe period and reports the
// probe overhead imposed on the host at each cadence (the paper picks 40ms
// probes every 4s for ~1%).
func BenchmarkAblationFluxCadence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, periodMS := range []uint64{100, 400, 1600} {
			frac := ablationFluxOverhead(b, periodMS)
			b.ReportMetric(frac*100, "probe-overhead-pct-"+strconv.FormatUint(periodMS, 10)+"ms")
		}
	}
}

// ----------------------------------------------------- ablation mechanics

func ablationEdgePolicy(b *testing.B) map[string]float64 {
	b.Helper()
	out := map[string]float64{}
	for name, policy := range map[string]pcc.EdgePolicy{
		"no-edges":    pcc.NoEdges,
		"multi-block": pcc.MultiBlockCallees,
		"all-calls":   pcc.AllCalls,
	} {
		bin, err := compileWithPolicy("gobmk", policy)
		if err != nil {
			b.Fatal(err)
		}
		m := machine.New(machine.Config{Cores: 1})
		p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
		if err != nil {
			b.Fatal(err)
		}
		m.RunSeconds(1)
		out[name] = float64(p.Counters().Insts)
	}
	return out
}

func ablationNTPolicy(b *testing.B, pol cache.NTPolicy) (victimQoS, hostSelfPerf float64) {
	b.Helper()
	hier := cache.DefaultHierarchy(2)
	hier.LLC.NT = pol

	soloVictim := func() float64 {
		m := machine.New(machine.Config{Cores: 2, Hierarchy: hier})
		vb, err := workload.MustByName("er-naive").CompilePlain()
		if err != nil {
			b.Fatal(err)
		}
		vp, _ := m.Attach(0, vb, machine.ProcessConfig{Restart: true})
		m.RunSeconds(1.5)
		return float64(vp.Counters().Insts)
	}()

	run := func(nt bool) (victim, host float64) {
		m := machine.New(machine.Config{Cores: 2, Hierarchy: hier})
		vb, _ := workload.MustByName("er-naive").CompilePlain()
		vp, _ := m.Attach(0, vb, machine.ProcessConfig{Restart: true})
		mod := workload.MustByName("libquantum").Module()
		if nt {
			for _, ld := range mod.Loads() {
				ld.NT = true
			}
			if err := mod.Finalize(); err != nil {
				b.Fatal(err)
			}
		}
		hb, err := compileModule(mod)
		if err != nil {
			b.Fatal(err)
		}
		hp, err := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
		if err != nil {
			b.Fatal(err)
		}
		m.RunSeconds(1.5)
		return float64(vp.Counters().Insts), float64(hp.Counters().Branches)
	}
	vPlain, hPlain := run(false)
	vNT, hNT := run(true)
	_ = vPlain
	return vNT / soloVictim, hNT / hPlain
}

func ablationSearch(b *testing.B, noBounds bool) int {
	b.Helper()
	extSolo, err := benchRunner.Solo("er-naive")
	if err != nil {
		b.Fatal(err)
	}
	m := machine.New(machine.Config{Cores: 4})
	eb, _ := workload.MustByName("er-naive").CompilePlain()
	ep, _ := m.Attach(0, eb, machine.ProcessConfig{Restart: true})
	hb, _ := workload.MustByName("libquantum").CompileProtean()
	hp, _ := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
	rt, err := core.New(core.Config{Machine: m, Host: hp, RuntimeCore: 2})
	if err != nil {
		b.Fatal(err)
	}
	m.AddAgent(rt)
	flux := qos.NewFluxMonitor(m, hp, ep, 0, 0)
	flux.ReferenceIPS = extSolo.IPS
	m.AddAgent(flux)
	extSig := func(*machine.Machine) phase.Signature {
		solo, _ := flux.SoloIPS()
		return phase.Signature{Rate: solo}
	}
	ctrl := pc3d.New(pc3d.Config{
		Runtime: rt, Steady: flux, Window: &qos.FluxWindow{Flux: flux, Ext: ep}, ExtSig: extSig,
		Target: 0.95, MaxSites: 6, NoBoundsReuse: noBounds,
	})
	defer ctrl.Close()
	m.AddAgent(ctrl)
	m.RunSeconds(8)
	return ctrl.Stats().NapProbes
}

func ablationFluxOverhead(b *testing.B, periodMS uint64) float64 {
	b.Helper()
	m := machine.New(machine.Config{Cores: 2})
	ms := uint64(m.Config().FreqHz / 1000)
	eb, _ := workload.MustByName("er-naive").CompilePlain()
	ep, _ := m.Attach(0, eb, machine.ProcessConfig{Restart: true})
	hb, _ := workload.MustByName("libquantum").CompilePlain()
	hp, _ := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
	flux := qos.NewFluxMonitor(m, hp, ep, periodMS*ms, 4*ms)
	m.AddAgent(flux)
	m.RunSeconds(3)
	c := hp.Counters()
	return float64(c.SleepCycles) / float64(c.Cycles)
}

// BenchmarkAblationPrefetchLead sweeps PCSP's lead distance on lbm and
// reports the BPS gain at each, plus the no-prefetch baseline.
func BenchmarkAblationPrefetchLead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, iters := range []int64{1, 4, 16, 64} {
			gain := ablationPrefetchLead(b, iters)
			b.ReportMetric(gain*100, "gain-pct-lead-"+strconv.FormatInt(iters, 10))
		}
	}
}

func ablationPrefetchLead(b *testing.B, iters int64) float64 {
	b.Helper()
	bin, err := workload.MustByName("lbm").CompileProtean()
	if err != nil {
		b.Fatal(err)
	}
	m := machine.New(machine.Config{Cores: 2})
	p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.New(core.Config{Machine: m, Host: p, RuntimeCore: 1})
	if err != nil {
		b.Fatal(err)
	}
	m.AddAgent(rt)
	ctrl := pcsp.New(pcsp.Config{Runtime: rt, LeadIters: []int64{iters}, MaxFuncs: 2})
	defer ctrl.Close()
	m.AddAgent(ctrl)
	m.RunSeconds(2.5)
	best := 0.0
	for _, r := range ctrl.Results() {
		if r.Gain > best {
			best = r.Gain
		}
	}
	return best
}
