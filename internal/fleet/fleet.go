// Package fleet simulates a warehouse-scale cluster as N concurrently
// simulated servers, replacing trust in the closed-form Figure 17/18
// projection with measurement. Each server is a full internal/machine
// instance — its own webservice, batch co-runner, mitigation policy
// (PC3D, ReQoS or none) and QoS monitor — and a placement scheduler
// assigns batch instances from a datacenter mix to servers under
// pluggable policies. Per-server counters aggregate into cluster
// metrics: utilization and QoS distributions, violation counts, batch
// throughput, and energy from measured utilizations through the same
// linear power model the analytic projection uses, so the two routes to
// the paper's warehouse-scale claims can be cross-checked.
//
// Servers are simulated across a bounded worker pool. Every machine is a
// self-contained single-goroutine simulation and all cross-server inputs
// (binaries, calibrations) are immutable during the run, so aggregate
// results are bit-identical at any worker count under a fixed seed.
package fleet

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/datacenter"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/progbin"
	"repro/internal/sampling"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// System selects each server's contention-mitigation policy.
type System int

// Mitigation systems.
const (
	// SystemNone co-locates with no mitigation.
	SystemNone System = iota
	// SystemPC3D runs the full protean runtime with the PC3D policy.
	SystemPC3D
	// SystemReQoS runs the reactive napping baseline.
	SystemReQoS
)

func (s System) String() string {
	switch s {
	case SystemNone:
		return "none"
	case SystemPC3D:
		return "PC3D"
	case SystemReQoS:
		return "ReQoS"
	}
	return fmt.Sprintf("system(%d)", int(s))
}

// SystemByName resolves a mitigation system by CLI name.
func SystemByName(name string) (System, error) {
	switch name {
	case "none":
		return SystemNone, nil
	case "pc3d", "PC3D":
		return SystemPC3D, nil
	case "reqos", "ReQoS":
		return SystemReQoS, nil
	}
	return 0, fmt.Errorf("fleet: unknown system %q", name)
}

// Config sizes and parameterizes a fleet run.
type Config struct {
	// Servers is the fleet size.
	Servers int
	// Webservice is the latency-sensitive tenant on every server.
	Webservice string
	// Mix supplies the batch instances (drawn equally via Mix.Instances).
	Mix datacenter.Mix
	// Instances is the batch instance count (default Servers; must be
	// <= Servers, one batch core per server).
	Instances int
	// System is the per-server mitigation policy (default SystemPC3D).
	System System
	// Target is the webservice QoS target (default 0.95).
	Target float64
	// Policy places batch instances on servers (default LeastLoaded).
	Policy Policy
	// Seed derives every server's machine seed; a fixed seed gives
	// bit-identical metrics at any worker count.
	Seed int64
	// Engine selects the machine execution engine on every server
	// ("" = machine.DefaultEngine). Engines are bit-identical, so fleet
	// metrics are unchanged by this knob.
	Engine string
	// Workers bounds concurrent server simulations (default
	// runtime.NumCPU()).
	Workers int
	// SoloSeconds, SettleSeconds and MeasureSeconds mirror the harness
	// scales: calibration window, pre-measurement settling (covers PC3D's
	// search) and the steady-state measurement window (defaults 1 / 5.5 /
	// 1, the BenchScale shape).
	SoloSeconds    float64
	SettleSeconds  float64
	MeasureSeconds float64
	// Trace, when set, gates every webservice behind an offered-load
	// trace; server i sees the trace phase-shifted by
	// i/Servers·PhaseSpreadSeconds, so the cluster sweeps the whole
	// diurnal cycle at any instant. When nil the webservices run
	// saturated (the Figures 9-15 regime).
	Trace loadgen.Trace
	// PhaseSpreadSeconds is the total phase offset fanned across the
	// fleet (default: one Trace period is unknowable here, so 0 = all
	// servers in phase).
	PhaseSpreadSeconds float64
	// MaxSites caps PC3D's search (0 = full search).
	MaxSites int
	// Chaos enables deterministic fault injection: server crashes with
	// scheduler re-placement, protean-runtime crashes (supervised
	// recovery), compile failures and QoS-sensor dropouts. Nil injects
	// nothing. Chaos.Seed defaults to Seed, so one seed pins placement and
	// failures together.
	Chaos *faults.Chaos
	// Migration enables the online contention-detection → live-migration
	// control loop (internal/contend): the run advances in decision
	// epochs, a streaming detector flags contended servers from their
	// counters, and flagged servers' batch instances migrate to
	// least-loaded healthy servers after a blackout. Nil keeps placement
	// static (the PRs-1–5 behavior, bit-for-bit).
	Migration *MigrationConfig
	// SLO enables the judgment layer (internal/slo): the run advances in
	// decision epochs (shared with Migration's when both are on), a tsdb
	// store samples every registered metric at each barrier, declarative
	// SLOs evaluate as multi-window burn-rate rules, and a flight recorder
	// freezes postmortem bundles when alerts fire. Nil evaluates nothing.
	SLO *SLOConfig
	// Telemetry, when non-nil, receives the cluster rollup: every server
	// simulates with its own single-writer registry (machine, core, pc3d
	// and supervise all report into it), and after the workers join the
	// per-server registries merge into this one in server-index order —
	// so the Prometheus export and JSONL trace are bit-identical at any
	// worker count under a fixed seed. Nil still instruments internally
	// (Metrics' chaos counters are read from the rollup); the registry is
	// then only reachable via Fleet.Telemetry.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Instances == 0 {
		c.Instances = c.Servers
	}
	if c.Target == 0 {
		c.Target = 0.95
	}
	if c.Policy == nil {
		c.Policy = LeastLoaded{}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.SoloSeconds == 0 {
		c.SoloSeconds = 1
	}
	if c.SettleSeconds == 0 {
		c.SettleSeconds = 5.5
	}
	if c.MeasureSeconds == 0 {
		c.MeasureSeconds = 1
	}
	if c.Chaos != nil {
		ch := c.Chaos.WithDefaults()
		if ch.Seed == 0 {
			ch.Seed = c.Seed
		}
		c.Chaos = &ch
	}
	if c.Migration != nil {
		mg := c.Migration.withDefaults(c)
		c.Migration = &mg
	}
	if c.SLO != nil {
		// After Migration's defaults: the SLO window rides its barriers.
		sc := c.SLO.withDefaults(c)
		c.SLO = &sc
	}
	return c
}

// quantumSeconds is the machine scheduling quantum every server runs at
// (machine.Config's default, 1 ms): the finest grain a server can stop at.
const quantumSeconds = 1e-3

// validate checks a configuration that already has its defaults. The
// durations arrive from flags, and a bad one does not fail, it spins: a
// negative duration wraps to a huge cycle target, a NaN or infinite one
// never reaches its horizon, and an epoch window under one machine quantum
// never advances a server.
func (c Config) validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("fleet: need at least one server, got %d", c.Servers)
	}
	if c.Instances < 0 {
		return fmt.Errorf("fleet: negative batch instance count %d", c.Instances)
	}
	if c.Instances > c.Servers {
		return fmt.Errorf("fleet: %d batch instances exceed %d servers (one batch core each)", c.Instances, c.Servers)
	}
	if !(c.Target > 0 && c.Target <= 1) {
		return fmt.Errorf("fleet: QoS target %v outside (0, 1]", c.Target)
	}
	type seconds struct {
		name   string
		v, min float64
	}
	// withDefaults has replaced a zero SoloSeconds or MeasureSeconds, so
	// non-negative means positive for those two.
	durations := []seconds{
		{"SoloSeconds", c.SoloSeconds, 0},
		{"SettleSeconds", c.SettleSeconds, 0},
		{"MeasureSeconds", c.MeasureSeconds, 0},
		{"PhaseSpreadSeconds", c.PhaseSpreadSeconds, 0},
	}
	if ch := c.Chaos; ch != nil {
		durations = append(durations,
			seconds{"Chaos.RestartDelaySeconds", ch.RestartDelaySeconds, 0},
			seconds{"Chaos.RuntimeCrashMTTFSeconds", ch.RuntimeCrashMTTFSeconds, 0},
			seconds{"Chaos.QoSDropoutSeconds", ch.QoSDropoutSeconds, 0},
			seconds{"Chaos.MoveStallMaxSeconds", ch.MoveStallMaxSeconds, 0})
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"Chaos.ServerCrashProb", ch.ServerCrashProb},
			{"Chaos.CompileFailProb", ch.CompileFailProb},
			{"Chaos.QoSDropoutProb", ch.QoSDropoutProb},
			{"Chaos.MoveDetachFailProb", ch.MoveDetachFailProb},
			{"Chaos.MoveLandFailProb", ch.MoveLandFailProb},
			{"Chaos.SampleCorruptProb", ch.SampleCorruptProb},
			{"Chaos.SampleStaleProb", ch.SampleStaleProb},
		} {
			if !(p.v >= 0 && p.v <= 1) { // NaN fails both comparisons
				return fmt.Errorf("fleet: %s = %v, want a probability in [0, 1]", p.name, p.v)
			}
		}
	}
	if mg := c.Migration; mg != nil {
		durations = append(durations,
			seconds{"Migration.WindowSeconds", mg.WindowSeconds, quantumSeconds},
			seconds{"Migration.BlackoutSeconds", mg.BlackoutSeconds, 0},
			seconds{"Migration.RetryBackoffSeconds", mg.RetryBackoffSeconds, 0},
			seconds{"Migration.RollbackPenaltySeconds", mg.RollbackPenaltySeconds, 0})
	}
	if c.SLO != nil {
		durations = append(durations, seconds{"SLO.WindowSeconds", c.SLO.WindowSeconds, quantumSeconds})
		// An SLO that can never page is rejected: a NaN objective makes
		// every burn NaN, one outside (0, 1] leaves no meaningful error
		// budget (1 is legal: any error is then an infinite burn), a rule
		// with no long window is never evaluable, and a NaN, infinite or
		// non-positive threshold fails or passes every comparison.
		for i, s := range c.SLO.Specs {
			if !(s.Objective > 0 && s.Objective <= 1) {
				return fmt.Errorf("fleet: SLO.Specs[%d] (%s) objective %v outside (0, 1]", i, s.Name, s.Objective)
			}
			for j, r := range s.Rules {
				if r.LongEpochs <= 0 {
					return fmt.Errorf("fleet: SLO.Specs[%d] (%s) rule %d: LongEpochs %d, want at least 1", i, s.Name, j, r.LongEpochs)
				}
				if !(r.Burn > 0) || math.IsInf(r.Burn, 1) {
					return fmt.Errorf("fleet: SLO.Specs[%d] (%s) rule %d: burn %v, want a finite threshold above 0", i, s.Name, j, r.Burn)
				}
			}
		}
	}
	for _, d := range durations {
		if !(d.v >= d.min) || math.IsInf(d.v, 1) {
			return fmt.Errorf("fleet: %s = %v, want a finite duration of at least %v s", d.name, d.v, d.min)
		}
	}
	known := make(map[string]bool)
	for _, s := range workload.Catalog() {
		known[s.Name] = true
	}
	if !known[c.Webservice] {
		return fmt.Errorf("fleet: unknown webservice %q", c.Webservice)
	}
	if len(c.Mix.Apps) == 0 && c.Instances > 0 {
		return fmt.Errorf("fleet: mix %q has no apps", c.Mix.Name)
	}
	for _, a := range c.Mix.Apps {
		if !known[a] {
			return fmt.Errorf("fleet: unknown app %q in mix %q", a, c.Mix.Name)
		}
	}
	return nil
}

// horizon is the full run length in simulated seconds.
func (c Config) horizon() float64 { return c.SettleSeconds + c.MeasureSeconds }

// ServerResult is one server's measured steady-state outcome.
type ServerResult struct {
	Index int
	// App is the last batch instance the server hosted: the placed
	// instance, a re-placed arrival absorbed after another server's
	// crash, or a migration landing ("" for a server that never hosted
	// batch work). A migrated-out server keeps the departed app's name so
	// its pre-eviction batch work stays attributed.
	App string
	// Utilization is the batch work done during the measurement window
	// normalized to solo rates — banked across migrations, so a server
	// that hosted for only part of the window reports the partial work.
	Utilization float64
	// QoS is the webservice's delivered quality: normalized IPS when
	// saturated, served/offered when load-gated. A crash scales it by the
	// fraction of the measurement window the server was up.
	QoS float64
	// Load is the webservice's mean offered load during measurement
	// (1.0 when saturated).
	Load float64

	// Chaos outcomes (zero when fault injection is off).

	// Crashed reports whole-server failure before the run's end.
	Crashed bool
	// Availability is the fraction of the measurement window the server
	// was up (1 when it never crashed).
	Availability float64
	// Absorbed counts re-placed batch instances this server picked up.
	Absorbed int
	// Faulted reports a surviving server that was fault-affected: it
	// absorbed a re-placement, lost a runtime, dropped compiles, or lost
	// sensor windows. Per-event counts live on the telemetry rollup
	// (Fleet.Telemetry) rather than being duplicated here.
	Faulted bool

	// Migration outcomes (zero when Config.Migration is nil).

	// MigratedIn counts live-migrated batch instances that landed here;
	// MigratedOut counts instances evicted from here by the planner.
	MigratedIn  int
	MigratedOut int
}

// Dist summarizes a cluster-wide value distribution. P05 and P01 are the
// low-end tails: for a quality metric (higher = better) they are the
// levels 95% and 99% of servers meet or exceed — the "p95/p99 tail" of
// QoS reporting.
type Dist struct {
	Mean, P50, P95, P05, P01, Min float64
}

func distOf(vals []float64) Dist {
	if len(vals) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return Dist{
		Mean: sum / float64(len(s)),
		P50:  rank(0.50), P95: rank(0.95), P05: rank(0.05), P01: rank(0.01),
		Min: s[0],
	}
}

// Metrics aggregates a fleet run.
type Metrics struct {
	Servers   int
	Instances int
	Policy    string
	System    System
	// Utilization is the distribution over batch-hosting servers.
	Utilization Dist
	// QoS is the webservice QoS distribution over all servers.
	QoS Dist
	// QoSViolations counts servers measuring below the QoS target.
	QoSViolations int
	// BatchUnits is total batch throughput in dedicated-server units
	// (Σ per-server utilization, each clamped to [0,1] exactly as the
	// analytic projection clamps).
	BatchUnits float64
	// ExtraServersEquivalent is the dedicated batch servers a
	// no-co-location fleet would need for the same batch throughput.
	ExtraServersEquivalent int
	// EnergyEfficiencyRatio is the measured-fleet work-per-Watt over the
	// no-co-location equivalent's, from per-server measured utilization
	// through the shared linear power model.
	EnergyEfficiencyRatio float64
	// PerApp averages utilization per batch app, the direct input for
	// cross-checking datacenter.Project.
	PerApp    map[string]float64
	PerServer []ServerResult

	// Chaos aggregates (zero when fault injection is off).

	// Availability is the mean fraction of the measurement window servers
	// were up.
	Availability float64
	// Crashes counts whole-server failures; Replacements counts batch
	// instances the scheduler re-placed on survivors; UnplacedInstances
	// counts victims it could not re-place in time.
	Crashes           int
	Replacements      int
	UnplacedInstances int
	// RuntimeCrashes / RuntimeRestarts sum protean-runtime deaths and
	// supervised re-attaches across the fleet.
	RuntimeCrashes  int
	RuntimeRestarts int
	// CompileFailures and SensorDropouts sum per-server policy counts.
	CompileFailures int
	SensorDropouts  int
	// DegradedQoS / DegradedUtilization are the distributions over
	// fault-affected survivors: servers that stayed up but absorbed a
	// re-placement, lost a runtime, dropped compiles, or lost sensor
	// windows. They quantify how gracefully service degrades under faults.
	DegradedQoS         Dist
	DegradedUtilization Dist

	// Migration aggregates (zero when Config.Migration is nil).

	// Migrations counts executed live migrations; MigrationQuantaLost is
	// the batch quanta spent in migration blackouts (the modeled cost);
	// ContendedServers is the detector's flagged count at the last
	// decision epoch.
	Migrations          int
	MigrationQuantaLost uint64
	ContendedServers    int
	// MovesFailed counts migrations that did not land (detach faults +
	// rollbacks); MoveRollbacks and MoveRetries break the failure path
	// down; BreakerTrips counts circuit-breaker openings; CorruptSamples
	// and StaleSamples count injected detector-sensor faults.
	MovesFailed    int
	MoveRollbacks  int
	MoveRetries    int
	BreakerTrips   int
	CorruptSamples int
	StaleSamples   int
	// AuditViolations counts invariant breaches the conservation auditor
	// observed (0 = the run provably never lost or duplicated an
	// instance).
	AuditViolations int

	// SLO aggregates (zero when Config.SLO is nil).

	// AlertsFired / AlertsResolved count burn-rate alert lifecycle edges;
	// Postmortems counts flight-recorder bundles frozen during the run.
	AlertsFired    int
	AlertsResolved int
	Postmortems    int
}

// calibration holds the immutable solo measurements every server
// simulation reads.
type calibration struct {
	soloBPS   map[string]float64
	soloIPS   map[string]float64
	pressure  map[string]float64 // solo LLC misses per simulated second
	plain     map[string]*progbin.Binary
	protean   map[string]*progbin.Binary
	wsSoloIPS float64
	wsPeakQPS float64
}

// Fleet is one configured cluster simulation.
type Fleet struct {
	cfg Config
	cal calibration
	// placement maps instance -> server index; assignment maps server
	// index -> app name ("" when batch-free). Valid after Run.
	placement []int
	slots     []ServerSlot
	instances []Instance
	// tel is the cluster telemetry rollup (cfg.Telemetry, or an internal
	// registry); serverTel holds the per-server registries until they merge
	// in index order after the workers join. Kept off Metrics so metric
	// snapshots stay plain comparable data.
	tel       *telemetry.Registry
	serverTel []*telemetry.Registry
	// serverProf holds each server's end-of-run deep profiles (app name →
	// profile, webservice included); merged in index order by WriteProfile.
	serverProf []map[string]*sampling.DeepProfile
	// live is the scrape surface state; non-nil once Handler was called.
	live *liveState
	// pub is the coordinator's latest published snapshot (see published).
	pub atomic.Pointer[published]
	// audit is the conservation auditor (non-nil once the epoch loop starts
	// with Config.Migration set).
	audit *auditor
	// sloObs is the SLO observer (non-nil once the epoch loop starts with
	// Config.SLO set).
	sloObs *sloObserver
}

// New validates the configuration and builds a fleet.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Fleet{cfg: cfg}, nil
}

// Config returns the effective configuration.
func (f *Fleet) Config() Config { return f.cfg }

// Telemetry returns the cluster telemetry rollup (valid after Run): the
// per-server registries merged in server-index order, plus the fleet-level
// aggregates. Its Prometheus export and JSONL trace are bit-identical at
// any worker count under a fixed seed.
func (f *Fleet) Telemetry() *telemetry.Registry { return f.tel }

// Placement returns instance → server index (valid after Run).
func (f *Fleet) Placement() []int { return f.placement }

// Instances returns the placed batch instances with their measured
// pressures (valid after Run).
func (f *Fleet) Instances() []Instance { return f.instances }

// serverSeed mixes the fleet seed with a server index (splitmix64-style)
// so each machine gets a distinct, reproducible address-stream seed.
func serverSeed(seed int64, idx int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1) // keep it positive for readability in dumps
}

// offset returns server i's phase offset in seconds.
func (f *Fleet) offset(i int) float64 {
	if f.cfg.Trace == nil || f.cfg.Servers == 0 {
		return 0
	}
	return f.cfg.PhaseSpreadSeconds * float64(i) / float64(f.cfg.Servers)
}

// trace returns server i's offered-load trace, or nil when saturated.
func (f *Fleet) trace(i int) loadgen.Trace {
	if f.cfg.Trace == nil {
		return nil
	}
	return loadgen.Offset{Trace: f.cfg.Trace, By: f.offset(i)}
}

// ForEach runs fn(0..n-1) across at most workers goroutines (serial when
// workers <= 1) and returns the lowest-index error. Callers write results
// to index i of a slice they own, so output order never depends on
// scheduling. The fleet's server pool and the harness's figure drivers
// share it.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach fans fn across the fleet's worker pool.
func (f *Fleet) forEach(n int, fn func(i int) error) error {
	return ForEach(f.cfg.Workers, n, fn)
}

// Run calibrates, places, simulates every server across the worker pool,
// and aggregates cluster metrics.
func (f *Fleet) Run() (Metrics, error) {
	apps := f.cfg.Mix.Instances(f.cfg.Instances)
	if err := f.calibrate(apps); err != nil {
		return Metrics{}, err
	}
	if err := f.place(apps); err != nil {
		return Metrics{}, err
	}

	assignment := make([]string, f.cfg.Servers)
	for inst, srv := range f.placement {
		assignment[srv] = apps[inst]
	}
	// The crash schedule is fixed before any server simulates, keeping it
	// independent of worker interleaving.
	plan := f.buildChaosPlan()
	f.tel = f.cfg.Telemetry
	if f.tel == nil {
		f.tel = telemetry.New(telemetry.Config{})
	}
	f.tel.Gauge("fleet", "scrape_interval_quanta", "live-publisher snapshot deposit interval in scheduler quanta").
		Set(publishEveryQuanta)
	// One single-writer registry per server; workers write disjoint slots.
	f.serverTel = make([]*telemetry.Registry, f.cfg.Servers)
	f.serverProf = make([]map[string]*sampling.DeepProfile, f.cfg.Servers)
	sims := make([]*serverSim, f.cfg.Servers)
	err := f.forEach(f.cfg.Servers, func(i int) error {
		s, err := newServerSim(f, i, assignment[i], plan.crashAt[i])
		sims[i] = s
		return err
	})
	if err != nil {
		return Metrics{}, err
	}
	if err := f.runEpochs(sims, &plan); err != nil {
		return Metrics{}, err
	}
	results := make([]ServerResult, f.cfg.Servers)
	err = f.forEach(f.cfg.Servers, func(i int) error {
		res, err := sims[i].finish()
		results[i] = res
		return err
	})
	if err != nil {
		return Metrics{}, err
	}
	if f.audit != nil {
		// Final sweep at the horizon: every pending arrival on a live
		// server has landed by now, so the census reduces to hosted +
		// stranded-on-dead and must still conserve the placed population.
		for _, s := range sims {
			s.read()
		}
		f.audit.check(f.audit.lastEpoch+1, f.cfg.horizon(),
			f.tel.CounterValue("contend", "migration_quanta_lost_total"),
			f.tel.CounterValue("contend", "migrations_total"),
			f.tel.CounterValue("contend", "moves_failed_total"))
		f.publish(func(p *published) { p.audit = f.audit.snapshot() })
	}
	// Merge in server-index order: the rollup's sums, histogram buckets and
	// trace are then independent of worker interleaving.
	for i, sr := range f.serverTel {
		f.tel.MergeFrom(sr, i)
	}
	return f.aggregate(results, plan), nil
}

// runEpochs is the fleet's one control loop. Every server advances to the
// next barrier across the worker pool, then the single-threaded coordinator
// section runs: the scheduler re-places instances off crashed servers, then
// — at decision epochs — the migration step (when on) and the SLO step
// (when on), which therefore observes the epoch's moves. Decisions are pure
// functions of (seed, epoch counters) and segment boundaries change nothing
// about what each machine computes, so the timeline is bit-identical at any
// worker count. Migration and SLO share one epoch clock; with migration on,
// its window wins (see SLOConfig.withDefaults). Every crash instant is a
// barrier too, in every run: the scheduler reacts to a crash the instant it
// happens, so a victim lands at exactly crash + RestartDelaySeconds. A run
// with no epoch clock and no crashes has no barriers at all: finish()
// drains every server in one pass. Each decision barrier reads every
// server once, after the re-placements; the migration and SLO steps both
// difference those readings.
func (f *Fleet) runEpochs(sims []*serverSim, plan *chaosPlan) error {
	var g *migrator
	crashes := plan.crashTimes()
	window := math.Inf(1)
	horizon := f.cfg.horizon()
	if f.cfg.Migration != nil {
		g = f.newMigrator(sims)
		window = g.mc.WindowSeconds
	}
	if f.cfg.SLO != nil {
		f.sloObs = f.newSLOObserver(sims)
		window = f.cfg.SLO.WindowSeconds
	}
	n := len(sims)
	for e := 1; ; {
		t, decide := float64(e)*window, true
		if len(crashes) > 0 && crashes[0] <= t {
			t, decide = crashes[0], crashes[0] == t
			crashes = crashes[1:]
		} else if t >= horizon-1e-9 {
			// The final partial segment runs in finish(); no decision at
			// the horizon itself.
			return nil
		}
		if err := f.forEach(n, func(i int) error { return sims[i].advanceTo(t) }); err != nil {
			return err
		}
		f.replaceDead(sims, plan, t)
		if !decide {
			continue
		}
		for _, s := range sims {
			s.read()
		}
		if g != nil {
			g.barrier(e, t)
		}
		if f.sloObs != nil {
			f.sloObs.barrier(e, t)
		}
		e++
	}
}

// calibrate measures solo rates, contentiousness and webservice capacity
// for every distinct app, in parallel; all downstream reads are immutable.
// Every app in the batch roster gets its protean binary under PC3D, the
// webservice's own name included.
func (f *Fleet) calibrate(apps []string) error {
	distinct := []string{f.cfg.Webservice}
	seen := map[string]bool{f.cfg.Webservice: true}
	batch := make(map[string]bool, len(apps))
	for _, a := range apps {
		batch[a] = true
		if !seen[a] {
			seen[a] = true
			distinct = append(distinct, a)
		}
	}
	f.cal = calibration{
		soloBPS:  make(map[string]float64),
		soloIPS:  make(map[string]float64),
		pressure: make(map[string]float64),
		plain:    make(map[string]*progbin.Binary),
		protean:  make(map[string]*progbin.Binary),
	}
	var mu sync.Mutex
	err := f.forEach(len(distinct), func(i int) error {
		name := distinct[i]
		plain, err := workload.Binary(name, false)
		if err != nil {
			return err
		}
		var prot *progbin.Binary
		if f.cfg.System == SystemPC3D && batch[name] {
			if prot, err = workload.Binary(name, true); err != nil {
				return err
			}
		}
		bps, ips, miss, err := f.soloRates(plain)
		if err != nil {
			return err
		}
		var qps float64
		if name == f.cfg.Webservice && f.cfg.Trace != nil {
			if qps, err = f.peakQPS(plain); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		f.cal.plain[name] = plain
		f.cal.protean[name] = prot
		f.cal.soloBPS[name] = bps
		f.cal.soloIPS[name] = ips
		f.cal.pressure[name] = miss
		if name == f.cfg.Webservice {
			f.cal.wsSoloIPS = ips
			f.cal.wsPeakQPS = qps
		}
		return nil
	})
	return err
}

// soloRates measures an app's interference-free BPS, IPS and LLC miss
// rate on a dedicated machine.
func (f *Fleet) soloRates(bin *progbin.Binary) (bps, ips, missRate float64, err error) {
	m := machine.New(machine.Config{Cores: 4, Seed: f.cfg.Seed, Engine: f.cfg.Engine})
	p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	if err != nil {
		return 0, 0, 0, err
	}
	m.RunSeconds(0.5)
	c0 := p.Counters()
	m0 := m.Hierarchy().CoreStats(0).LLCMisses
	m.RunSeconds(f.cfg.SoloSeconds)
	d := p.Counters().Sub(c0)
	dm := m.Hierarchy().CoreStats(0).LLCMisses - m0
	sec := f.cfg.SoloSeconds
	return float64(d.Branches) / sec, float64(d.Insts) / sec, float64(dm) / sec, nil
}

// peakQPS measures the webservice's solo capacity in gated mode.
func (f *Fleet) peakQPS(bin *progbin.Binary) (float64, error) {
	m := machine.New(machine.Config{Cores: 4, Seed: f.cfg.Seed, Engine: f.cfg.Engine})
	p, err := m.Attach(0, bin, machine.ProcessConfig{Gated: true})
	if err != nil {
		return 0, err
	}
	quanta := int(2 * m.Config().FreqHz / float64(m.Config().QuantumCycles))
	return loadgen.MeasureCapacity(m, p, quanta), nil
}

// place runs the scheduler and validates its assignment.
func (f *Fleet) place(apps []string) error {
	f.slots = make([]ServerSlot, f.cfg.Servers)
	horizon := f.cfg.horizon()
	for i := range f.slots {
		load := 1.0
		if tr := f.trace(i); tr != nil {
			load = loadgen.MeanLoad(tr, horizon)
		}
		f.slots[i] = ServerSlot{Index: i, BaseLoad: load}
	}
	f.instances = make([]Instance, len(apps))
	for i, a := range apps {
		f.instances[i] = Instance{App: a, Pressure: f.cal.pressure[a]}
	}
	f.placement = f.cfg.Policy.Place(f.instances, f.slots)
	if len(f.placement) != len(apps) {
		return fmt.Errorf("fleet: policy %s placed %d of %d instances", f.cfg.Policy.Name(), len(f.placement), len(apps))
	}
	used := make(map[int]bool, len(f.placement))
	for inst, srv := range f.placement {
		if srv < 0 || srv >= f.cfg.Servers {
			return fmt.Errorf("fleet: policy %s placed instance %d on out-of-range server %d", f.cfg.Policy.Name(), inst, srv)
		}
		if used[srv] {
			return fmt.Errorf("fleet: policy %s double-booked server %d", f.cfg.Policy.Name(), srv)
		}
		used[srv] = true
	}
	return nil
}

// aggregate folds per-server results into cluster metrics, in server-index
// order so floating-point sums are identical at any worker count.
func (f *Fleet) aggregate(results []ServerResult, plan chaosPlan) Metrics {
	cfg := f.cfg
	mt := Metrics{
		Servers:           cfg.Servers,
		Instances:         cfg.Instances,
		Policy:            cfg.Policy.Name(),
		System:            cfg.System,
		PerApp:            make(map[string]float64),
		PerServer:         results,
		Crashes:           plan.crashes,
		Replacements:      plan.replacements,
		UnplacedInstances: plan.unplaced,
	}
	// The per-server registries merged before aggregation; fleet-wide chaos
	// counters are read off the rollup rather than re-summed from results.
	mt.RuntimeCrashes = int(f.tel.CounterValue("supervise", "reaps_total"))
	mt.RuntimeRestarts = int(f.tel.CounterValue("supervise", "restarts_total"))
	mt.CompileFailures = int(f.tel.CounterValue("pc3d", "compile_failures_total"))
	mt.SensorDropouts = int(f.tel.CounterValue("pc3d", "sensor_dropouts_total"))
	mt.Migrations = int(f.tel.CounterValue("contend", "migrations_total"))
	mt.MigrationQuantaLost = uint64(f.tel.CounterValue("contend", "migration_quanta_lost_total"))
	mt.ContendedServers = int(f.tel.GaugeValue("contend", "contended_servers"))
	mt.MovesFailed = int(f.tel.CounterValue("contend", "moves_failed_total"))
	mt.MoveRollbacks = int(f.tel.CounterValue("contend", "move_rollbacks_total"))
	mt.MoveRetries = int(f.tel.CounterValue("contend", "move_retries_total"))
	mt.BreakerTrips = int(f.tel.CounterValue("contend", "breaker_trips_total"))
	mt.CorruptSamples = int(f.tel.CounterValue("contend", "corrupt_samples_total"))
	mt.StaleSamples = int(f.tel.CounterValue("contend", "stale_samples_total"))
	if f.audit != nil {
		mt.AuditViolations = len(f.audit.rep.Violations)
		f.tel.Counter("fleet", "audit_violations_total", "invariant breaches the conservation auditor observed").Add(uint64(mt.AuditViolations))
	}
	if f.sloObs != nil {
		mt.AlertsFired = int(f.tel.CounterValue("slo", "alerts_fired_total"))
		mt.AlertsResolved = int(f.tel.CounterValue("slo", "alerts_resolved_total"))
		mt.Postmortems = int(f.tel.CounterValue("slo", "postmortems_total"))
	}
	var utils, qs, degQ, degU []float64
	availSum := 0.0
	perAppN := make(map[string]int)
	fleetPower, ncPower := 0.0, 0.0
	scale := datacenter.DefaultScale() // the paper's power-model constants
	hQoS := f.tel.Histogram("fleet", "server_qos", "per-server webservice QoS", []float64{0.5, 0.8, 0.9, 0.95, 0.99, 1})
	hUtil := f.tel.Histogram("fleet", "server_utilization", "per-server batch utilization", []float64{0.25, 0.5, 0.75, 0.9, 1})
	for _, r := range results {
		qs = append(qs, r.QoS)
		hQoS.Observe(r.QoS)
		if r.QoS < cfg.Target {
			mt.QoSViolations++
		}
		availSum += r.Availability
		if r.Faulted {
			degQ = append(degQ, r.QoS)
			if r.App != "" {
				degU = append(degU, r.Utilization)
			}
		}
		wsPart := scale.WebserviceUtil * r.Load
		u := 0.0
		if r.App != "" {
			utils = append(utils, r.Utilization)
			hUtil.Observe(r.Utilization)
			mt.PerApp[r.App] += r.Utilization
			perAppN[r.App]++
			u = math.Min(r.Utilization, 1)
			mt.BatchUnits += u
		}
		fleetPower += datacenter.Power(scale, wsPart+(1-scale.WebserviceUtil)*u)
		ncPower += datacenter.Power(scale, wsPart) + u*datacenter.Power(scale, 1)
	}
	for app, n := range perAppN {
		mt.PerApp[app] /= float64(n)
	}
	mt.Utilization = distOf(utils)
	mt.QoS = distOf(qs)
	mt.DegradedQoS = distOf(degQ)
	mt.DegradedUtilization = distOf(degU)
	if cfg.Servers > 0 {
		mt.Availability = availSum / float64(cfg.Servers)
	}
	mt.ExtraServersEquivalent = int(mt.BatchUnits + 0.5)
	if fleetPower > 0 {
		mt.EnergyEfficiencyRatio = ncPower / fleetPower
	}
	// Fleet-level aggregates join the rollup so one export carries the
	// whole picture (the plan's scheduler-side counts have no per-server
	// registry to live on).
	f.tel.Counter("fleet", "scheduled_crashes_total", "whole-server failures in the chaos plan").Add(uint64(plan.crashes))
	f.tel.Counter("fleet", "replacements_total", "batch instances the scheduler re-placed on survivors").Add(uint64(plan.replacements))
	f.tel.Counter("fleet", "unplaced_instances_total", "crash victims the scheduler could not re-place in time").Add(uint64(plan.unplaced))
	f.tel.Counter("fleet", "qos_violation_servers_total", "servers measuring below the QoS target").Add(uint64(mt.QoSViolations))
	f.tel.Gauge("fleet", "availability", "mean fraction of the measurement window servers were up").Set(mt.Availability)
	f.tel.Gauge("fleet", "batch_units", "total batch throughput in dedicated-server units").Set(mt.BatchUnits)
	f.tel.Gauge("fleet", "energy_efficiency_ratio", "measured work-per-Watt over the no-co-location equivalent").Set(mt.EnergyEfficiencyRatio)
	return mt
}
