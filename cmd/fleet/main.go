// Command fleet runs the warehouse-scale fleet simulator: N simulated
// servers, each co-locating a latency-sensitive webservice with a batch
// instance drawn from a datacenter mix under a chosen mitigation system
// and placement policy, driven concurrently and aggregated into cluster
// metrics.
//
// Usage:
//
//	fleet -servers 64 -mix WL1 -webservice web-search -policy least-loaded
//	fleet -servers 16 -mix WL2 -system reqos -diurnal 20 -load-low 0.3 -load-high 0.9
//	fleet -servers 8 -chaos -crash-rate 0.3 -runtime-mttf 5 -qos-dropout 0.2
//	fleet -servers 8 -metrics metrics.prom -trace trace.jsonl
//	fleet -servers 12 -system none -migrate -contend-window 0.5 -contend-q 0.75 -contend-out contend.json
//	fleet -servers 12 -migrate -move-land-fail 0.4 -sample-stale 0.05 -breaker-k 3 -audit-out audit.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/datacenter"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/telemetry"
)

func main() {
	// Flags bind straight into the configuration they set; the chaos,
	// migration and SLO blocks attach to cfg only when switched on.
	var (
		cfg fleet.Config
		ch  faults.Chaos
		mg  fleet.MigrationConfig
		sc  fleet.SLOConfig
	)
	flag.IntVar(&cfg.Servers, "servers", 16, "fleet size")
	flag.IntVar(&cfg.Instances, "instances", 0, "batch instances to place (0 = one per server)")
	flag.StringVar(&cfg.Webservice, "webservice", "web-search", "latency-sensitive app on every server")
	mixName := flag.String("mix", "WL1", "batch mix: WL1|WL2|WL3")
	policyName := flag.String("policy", "least-loaded", "placement policy: round-robin|least-loaded|contention-aware")
	systemName := flag.String("system", "pc3d", "mitigation system: none|pc3d|reqos")
	flag.Float64Var(&cfg.Target, "target", 0.95, "QoS target")
	flag.Int64Var(&cfg.Seed, "seed", 1, "fleet seed (fixed seed = bit-identical metrics at any -workers)")
	flag.StringVar(&cfg.Engine, "engine", machine.DefaultEngine, "execution engine: superblock|interp (bit-identical)")
	flag.IntVar(&cfg.Workers, "workers", 0, "max concurrent server simulations (0 = NumCPU)")
	flag.Float64Var(&cfg.SoloSeconds, "solo", 1, "solo calibration seconds per app")
	flag.Float64Var(&cfg.SettleSeconds, "settle", 5.5, "settle seconds before measurement")
	flag.Float64Var(&cfg.MeasureSeconds, "measure", 1, "steady-state measurement seconds")
	var diurnal loadgen.Diurnal
	flag.Float64Var(&diurnal.Period, "diurnal", 0, "diurnal load period in seconds (0 = saturated webservices)")
	flag.Float64Var(&diurnal.Low, "load-low", 0.25, "diurnal trough load fraction")
	flag.Float64Var(&diurnal.High, "load-high", 0.95, "diurnal peak load fraction")
	flag.Float64Var(&cfg.PhaseSpreadSeconds, "phase-spread", 0, "total diurnal phase offset fanned across the fleet, seconds")
	flag.IntVar(&cfg.MaxSites, "max-sites", 0, "cap PC3D's search (0 = full search)")

	chaos := flag.Bool("chaos", false, "enable fault injection (a moderate preset unless rates are given)")
	flag.Int64Var(&ch.Seed, "fault-seed", 0, "fault-schedule seed (0 = the fleet seed)")
	flag.Float64Var(&ch.ServerCrashProb, "crash-rate", 0, "per-server whole-machine crash probability")
	flag.Float64Var(&ch.RestartDelaySeconds, "restart-delay", 0.5, "scheduler re-placement delay after a server crash, seconds")
	flag.Float64Var(&ch.CompileFailProb, "compile-fail", 0, "per-compile-job failure probability in the protean runtime")
	flag.Float64Var(&ch.RuntimeCrashMTTFSeconds, "runtime-mttf", 0, "protean runtime mean time to failure, seconds (0 = never)")
	flag.Float64Var(&ch.QoSDropoutProb, "qos-dropout", 0, "probability each QoS sensor window goes dark")
	flag.Float64Var(&ch.QoSDropoutSeconds, "dropout-seconds", 0.2, "QoS sensor dropout window length, seconds")

	flag.Float64Var(&ch.MoveDetachFailProb, "move-detach-fail", 0, "per-move probability a migration fails before the source detaches")
	flag.Float64Var(&ch.MoveLandFailProb, "move-land-fail", 0, "per-attempt probability a migration landing fails")
	flag.Float64Var(&ch.MoveStallMaxSeconds, "move-stall-max", 0, "max extra blackout stall per move, seconds (uniform)")
	flag.Float64Var(&ch.SampleCorruptProb, "sample-corrupt", 0, "per-(server,epoch) probability a detector sample arrives corrupted")
	flag.Float64Var(&ch.SampleStaleProb, "sample-stale", 0, "per-(server,epoch) probability a detector sample replays stale")

	migrate := flag.Bool("migrate", false, "enable contention-detection → live batch migration")
	flag.Float64Var(&mg.WindowSeconds, "contend-window", 0.5, "migration decision-epoch length, seconds")
	flag.Float64Var(&mg.Detector.Quantile, "contend-q", 0.75, "detector quantile for the contention threshold")
	flag.IntVar(&mg.BudgetPerEpoch, "migrate-budget", 1, "max migrations per decision epoch")
	flag.Float64Var(&mg.BlackoutSeconds, "blackout", 0.25, "migration blackout (modeled cost), seconds")
	flag.IntVar(&mg.MaxLandAttempts, "migrate-retries", 0, "max landing attempts per move, planned destination included (0 = default 3)")
	flag.Float64Var(&mg.RetryBackoffSeconds, "retry-backoff", 0, "extra blackout before each retry landing, seconds (0 = blackout/2)")
	flag.Float64Var(&mg.RollbackPenaltySeconds, "rollback-penalty", 0, "extra blackout charged when a move rolls back, seconds (0 = blackout)")
	flag.IntVar(&mg.Breaker.FailureThreshold, "breaker-k", 0, "consecutive failed moves that trip the migration breaker (0 = default 3)")
	flag.IntVar(&mg.Breaker.CooldownEpochs, "breaker-cooldown", 0, "epochs the tripped breaker stays open before a half-open probe (0 = default 8)")
	contendPath := flag.String("contend-out", "", "write the final contention/migration status as JSON to this file (- = stdout)")
	auditPath := flag.String("audit-out", "", "write the conservation auditor's report as JSON to this file (- = stdout)")

	sloOn := flag.Bool("slo", false, "enable the SLO engine: multi-window burn-rate alerts over a deterministic time-series store")
	flag.Float64Var(&sc.WindowSeconds, "slo-window", 0, "SLO evaluation-epoch length, seconds (0 = 0.5, or the -contend-window with -migrate)")
	flag.IntVar(&sc.BoostBudget, "slo-boost", 0, "extra per-epoch migration budget while the QoS burn alert fires (needs -migrate)")
	alertsPath := flag.String("alerts-out", "", "write the alert log (every SLO lifecycle transition) as JSON to this file (- = stdout)")
	tsdbPath := flag.String("tsdb-out", "", "write the full time-series store as JSON to this file (- = stdout)")
	postmortDir := flag.String("postmortem-dir", "", "write each frozen postmortem bundle as JSON into this directory")

	metricsPath := flag.String("metrics", "", "write the cluster telemetry rollup in Prometheus text format to this file (- = stdout)")
	tracePath := flag.String("trace", "", "write the merged event trace as JSONL to this file (- = stdout)")
	spansPath := flag.String("spans", "", "write the merged spans + events as Chrome trace-event JSON (Perfetto-loadable) to this file (- = stdout)")
	profilePath := flag.String("profile", "", "write the fleet deep profile as folded stacks (flamegraph/speedscope input) to this file (- = stdout)")
	serveAddr := flag.String("serve", "", "serve /metrics, /trace, /profile, /slo, /alerts, /postmortem, /healthz (plus /debug/pprof) on this address during and after the run, e.g. :8080")
	flag.Parse()

	var ok bool
	var err error
	if cfg.Mix, ok = datacenter.MixByName(*mixName); !ok {
		fail("unknown mix %q (try WL1, WL2, WL3)", *mixName)
	}
	if cfg.Policy, err = fleet.PolicyByName(*policyName); err != nil {
		failErr(err)
	}
	if cfg.System, err = fleet.SystemByName(*systemName); err != nil {
		failErr(err)
	}
	if err := checkDiurnal(diurnal); err != nil {
		failErr(err)
	} else if diurnal.Period > 0 {
		cfg.Trace = diurnal
	}
	if *chaos || ch.Enabled() {
		if !ch.Enabled() {
			// Bare -chaos: a moderate every-fault-class preset.
			ch.ServerCrashProb = 0.3
			ch.CompileFailProb = 0.15
			ch.RuntimeCrashMTTFSeconds = 10
			ch.QoSDropoutProb = 0.15
		}
		cfg.Chaos = &ch
	}
	if *migrate {
		cfg.Migration = &mg
	}
	if *sloOn || *alertsPath != "" || *tsdbPath != "" || *postmortDir != "" {
		cfg.SLO = &sc
	}

	f, err := fleet.New(cfg)
	if err != nil {
		failErr(err)
	}

	cfg = f.Config()
	fmt.Printf("fleet: %d servers, %d %s instances, webservice %s, system %s, policy %s, %d workers\n",
		cfg.Servers, cfg.Instances, cfg.Mix.Name, cfg.Webservice, cfg.System, cfg.Policy.Name(), cfg.Workers)
	if *serveAddr != "" {
		// The handler must exist before Run so servers publish live
		// snapshots; scraping works throughout the run and afterwards.
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			failErr(err)
		}
		fmt.Printf("serving /metrics /trace /profile /contend /audit /slo /alerts /postmortem /healthz on %s\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, f.Handler()); err != nil {
				fail("serve: %v", err)
			}
		}()
	}
	start := time.Now()
	m, err := f.Run()
	if err != nil {
		failErr(err)
	}

	fmt.Printf("\n%-22s %8s %8s %8s %8s\n", "", "mean", "p50", "p95", "min")
	fmt.Printf("%-22s %8.3f %8.3f %8.3f %8.3f\n", "batch utilization", m.Utilization.Mean, m.Utilization.P50, m.Utilization.P95, m.Utilization.Min)
	fmt.Printf("%-22s %8.3f %8.3f %8.3f %8.3f\n", "webservice QoS", m.QoS.Mean, m.QoS.P50, m.QoS.P95, m.QoS.Min)
	fmt.Printf("\nQoS violations:          %d/%d servers below %.0f%% target\n", m.QoSViolations, m.Servers, cfg.Target*100)
	fmt.Printf("batch throughput:        %.2f dedicated-server units\n", m.BatchUnits)
	fmt.Printf("extra servers avoided:   %d (no-co-location equivalent)\n", m.ExtraServersEquivalent)
	fmt.Printf("energy efficiency:       %.2fx vs no-co-location fleet\n", m.EnergyEfficiencyRatio)
	if cfg.Chaos != nil {
		fmt.Printf("\nfault injection:\n")
		fmt.Printf("  availability:          %.3f mean up-fraction of the measurement window\n", m.Availability)
		fmt.Printf("  server crashes:        %d (%d instances re-placed, %d unplaced)\n",
			m.Crashes, m.Replacements, m.UnplacedInstances)
		fmt.Printf("  runtime crashes:       %d (%d supervised restarts)\n", m.RuntimeCrashes, m.RuntimeRestarts)
		fmt.Printf("  compile failures:      %d\n", m.CompileFailures)
		fmt.Printf("  sensor dropouts:       %d\n", m.SensorDropouts)
		fmt.Printf("  degraded survivors:    QoS %.3f/%.3f/%.3f util %.3f/%.3f/%.3f (mean/p50/min)\n",
			m.DegradedQoS.Mean, m.DegradedQoS.P50, m.DegradedQoS.Min,
			m.DegradedUtilization.Mean, m.DegradedUtilization.P50, m.DegradedUtilization.Min)
	}

	if cfg.Migration != nil {
		fmt.Printf("\nlive migration:\n")
		fmt.Printf("  migrations:            %d (%d batch quanta lost to blackouts)\n", m.Migrations, m.MigrationQuantaLost)
		fmt.Printf("  contended servers:     %d at the last decision epoch\n", m.ContendedServers)
		fmt.Printf("  QoS tail:              p95 %.3f  p99 %.3f (levels 95%%/99%% of servers meet)\n", m.QoS.P05, m.QoS.P01)
		fmt.Printf("  failed moves:          %d (%d rollbacks, %d retries)\n", m.MovesFailed, m.MoveRollbacks, m.MoveRetries)
		fmt.Printf("  breaker trips:         %d\n", m.BreakerTrips)
		fmt.Printf("  sensor faults:         %d corrupt, %d stale detector samples\n", m.CorruptSamples, m.StaleSamples)
		fmt.Printf("  audit violations:      %d (conservation, occupancy, monotonicity, accounting)\n", m.AuditViolations)
	}

	if cfg.SLO != nil {
		fmt.Printf("\nSLO engine:\n")
		fmt.Printf("  alerts:                %d fired, %d resolved\n", m.AlertsFired, m.AlertsResolved)
		fmt.Printf("  postmortems:           %d bundles frozen\n", m.Postmortems)
	}

	fmt.Printf("\nper-app mean utilization:\n")
	for _, app := range cfg.Mix.Apps {
		if u, ok := m.PerApp[app]; ok {
			fmt.Printf("  %-20s %.3f\n", app, u)
		}
	}
	fmt.Printf("\n[%d servers simulated in %.1fs]\n", m.Servers, time.Since(start).Seconds())

	tel := f.Telemetry()
	export := func(name string) func(io.Writer) error {
		return func(w io.Writer) error { return f.WriteExport(name, w) }
	}
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*metricsPath, tel.WritePrometheus},
		{*tracePath, tel.WriteJSONL},
		{*spansPath, tel.WriteChromeTrace},
		{*profilePath, f.WriteProfile},
		{*contendPath, export("contend")},
		{*auditPath, export("audit")},
		{*alertsPath, export("alerts")},
		{*tsdbPath, f.WriteTSDB},
	} {
		if out.path == "" {
			continue
		}
		if err := telemetry.WriteExport(out.path, out.write); err != nil {
			failErr(err)
		}
	}
	if *postmortDir != "" {
		if err := os.MkdirAll(*postmortDir, 0o755); err != nil {
			failErr(err)
		}
		for _, b := range f.Postmortems() {
			name := fmt.Sprintf("postmortem_%03d_%s.json", b.Seq, strings.ReplaceAll(b.Reason, ":", "_"))
			path := filepath.Join(*postmortDir, name)
			if err := os.WriteFile(path, []byte(b.JSON()), 0o644); err != nil {
				failErr(err)
			}
		}
		fmt.Printf("wrote %d postmortem bundles to %s\n", len(f.Postmortems()), *postmortDir)
	}
	if *serveAddr != "" {
		fmt.Println("run complete; still serving (ctrl-c to exit)")
		select {}
	}
}

// checkDiurnal rejects a diurnal curve the flags cannot mean: a period
// that is negative, NaN or infinite (0 leaves the webservices saturated),
// or a load level outside [0, 1].
func checkDiurnal(d loadgen.Diurnal) error {
	if !(d.Period >= 0) || math.IsInf(d.Period, 1) {
		return fmt.Errorf("fleet: -diurnal %v, want a finite period of at least 0 seconds", d.Period)
	}
	if !(d.Low >= 0 && d.Low <= 1 && d.High >= 0 && d.High <= 1) { // NaN fails every comparison
		return fmt.Errorf("fleet: -load-low %v, -load-high %v, want load fractions in [0, 1]", d.Low, d.High)
	}
	return nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", args...)
	os.Exit(2)
}

// failErr prints an error that already carries the package prefix.
func failErr(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
