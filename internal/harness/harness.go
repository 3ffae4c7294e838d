// Package harness reproduces the paper's evaluation: it wires workloads,
// the protean runtime, PC3D, and the baselines into the co-location
// experiments behind every table and figure, and renders the same rows and
// series the paper reports.
//
// All experiments run through a Runner, which memoizes solo-rate
// calibrations, pair results and the Figure 16 trace runs so figures that
// share underlying runs (e.g. Figures 9–14, Figures 15 and 17, or Figure 16
// and its timeline and span views) measure once; every Runner in a process
// shares the catalog binaries workload.Binary compiles once. Every
// co-located server is the same fleet.AttachStack a fleet server runs, and
// every steady-state number is read through one window. A Scale selects
// experiment durations: FullScale approximates the paper's coverage;
// QuickScale and BenchScale shrink durations and rosters for fast test and
// benchmark runs while preserving every experiment's shape.
package harness

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/pc3d"
	"repro/internal/progbin"
	"repro/internal/workload"
)

// Scale selects experiment sizes.
type Scale struct {
	Name string
	// SoloSeconds is the measurement window for solo calibrations (after a
	// 0.5 s warmup).
	SoloSeconds float64
	// SettleSeconds precede steady-state measurement in co-location runs
	// (covers PC3D's search).
	SettleSeconds float64
	// MeasureSeconds is the steady-state measurement window.
	MeasureSeconds float64
	// TraceSeconds is the Figure 16 experiment duration.
	TraceSeconds float64
	// StressSeconds is the duration of each Figure 4–6 overhead run.
	StressSeconds float64
	// MaxSites caps PC3D's search (0 = the paper's full search).
	MaxSites int
	// Hosts limits the batch-host roster (0 = all ten).
	Hosts int
	// Exts limits the Figure 15 co-runner spectrum (0 = all).
	Exts int
	// SPECApps limits the Figure 4–6 roster (0 = all eighteen).
	SPECApps int
	// Targets are the QoS targets swept (nil = the paper's 90/95/98%).
	Targets []float64
	// Workers bounds the figure drivers' experiment fan-out (<=1 = serial).
	// Every simulated machine is independent, so results are identical at
	// any worker count; rows stay in paper order.
	Workers int
	// Engine selects the machine execution engine for every experiment
	// ("" = machine.DefaultEngine). Engines are bit-identical, so figures
	// and tables are unchanged by this knob; it exists for differential
	// testing and benchmarking.
	Engine string
}

// FullScale approximates the paper's experiment coverage.
func FullScale() Scale {
	return Scale{
		Name: "full", SoloSeconds: 2, SettleSeconds: 8, MeasureSeconds: 2,
		TraceSeconds: 90, StressSeconds: 2,
	}
}

// QuickScale preserves every experiment's shape at reduced cost.
func QuickScale() Scale {
	return Scale{
		Name: "quick", SoloSeconds: 1.5, SettleSeconds: 7, MeasureSeconds: 1.5,
		TraceSeconds: 45, StressSeconds: 1, MaxSites: 10, Hosts: 5, Exts: 3, SPECApps: 8,
	}
}

// BenchScale is the smallest shape-preserving configuration: the scale of
// the check tests, scripts/corpus.sh and the bench/ module.
func BenchScale() Scale {
	return Scale{
		Name: "bench", SoloSeconds: 1, SettleSeconds: 5.5, MeasureSeconds: 1,
		TraceSeconds: 30, StressSeconds: 0.5, MaxSites: 6, Hosts: 2, Exts: 2, SPECApps: 4,
		Targets: []float64{0.95},
	}
}

// validate rejects the durations a co-location run would turn into
// nonsense instead of failing: Machine.RunSeconds converts a negative, NaN
// or infinite duration to a single quantum, and a zero window divides the
// rates it measures by zero.
func (sc Scale) validate() error {
	for _, d := range []struct {
		name, want string
		v          float64
		ok         bool
	}{
		{"SoloSeconds", "positive", sc.SoloSeconds, sc.SoloSeconds > 0},
		{"SettleSeconds", "non-negative", sc.SettleSeconds, sc.SettleSeconds >= 0},
		{"MeasureSeconds", "positive", sc.MeasureSeconds, sc.MeasureSeconds > 0},
	} {
		if !d.ok || math.IsInf(d.v, 1) {
			return fmt.Errorf("harness: %s = %v, want a finite %s duration", d.name, d.v, d.want)
		}
	}
	return nil
}

func (sc Scale) targets() []float64 {
	if len(sc.Targets) > 0 {
		return sc.Targets
	}
	return []float64{0.90, 0.95, 0.98}
}

func (sc Scale) hosts() []string {
	h := workload.BatchHosts()
	if sc.Hosts > 0 && sc.Hosts < len(h) {
		return h[:sc.Hosts]
	}
	return h
}

func (sc Scale) specApps() []string {
	a := workload.SPECFig4Apps()
	if sc.SPECApps > 0 && sc.SPECApps < len(a) {
		return a[:sc.SPECApps]
	}
	return a
}

// extSpectrum is the Figure 15 co-runner set: "the entire spectrum of
// CloudSuite, SPEC and SmashBench co-runners" (Table II's external apps).
func (sc Scale) extSpectrum() []string {
	all := []string{
		"web-search", "media-streaming", "graph-analytics",
		"mcf", "omnetpp", "xalancbmk", "bst", "er-naive", "streamcluster",
	}
	if sc.Exts > 0 && sc.Exts < len(all) {
		return all[:sc.Exts]
	}
	return all
}

// System selects the mitigation system of a co-location run; the fleet's
// per-server mitigation systems are the same set.
type System = fleet.System

// Mitigation systems.
const (
	SystemNone  = fleet.SystemNone
	SystemPC3D  = fleet.SystemPC3D
	SystemReQoS = fleet.SystemReQoS
)

// SoloRates is a solo calibration of one app.
type SoloRates struct {
	IPS float64
	BPS float64
}

// PairResult is the steady-state outcome of one co-location run.
type PairResult struct {
	Host   string
	Ext    string
	System System
	Target float64
	// Utilization is host BPS normalized to its solo (plain-binary) BPS.
	Utilization float64
	// QoS is the external app's true IPS normalized to its solo IPS,
	// measured independently of the online monitors.
	QoS float64
	// RuntimeFrac is the protean runtime's share of server cycles
	// (PC3D only).
	RuntimeFrac float64
	// PC3D holds controller stats (PC3D only).
	PC3D pc3d.Stats
}

type pairKey struct {
	host, ext string
	system    System
	target    float64
}

// cell is one memo slot: the first caller runs the experiment inside the
// sync.Once while latecomers for the same key block on it, so concurrent
// figure drivers measure each key exactly once.
type cell[V any] struct {
	once sync.Once
	val  V
	err  error
}

// memo is a single-flight memo table; the zero value is ready.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*cell[V]
}

// get returns k's value, running f for it at most once.
func (mm *memo[K, V]) get(k K, f func() (V, error)) (V, error) {
	mm.mu.Lock()
	if mm.m == nil {
		mm.m = make(map[K]*cell[V])
	}
	c := mm.m[k]
	if c == nil {
		c = &cell[V]{}
		mm.m[k] = c
	}
	mm.mu.Unlock()
	c.once.Do(func() { c.val, c.err = f() })
	return c.val, c.err
}

// Runner executes experiments with single-flight memoization of its
// measurements; it is safe for concurrent use. It holds no binaries: every
// run attaches the shared, read-only workload.Binary.
type Runner struct {
	sc Scale

	solo   memo[string, SoloRates]
	pairs  memo[pairKey, PairResult]
	traces memo[System, traceRun]

	// soloRuns/pairRuns/traceRuns count actual experiment executions (not
	// memoized hits), so tests can assert in-flight deduplication.
	soloRuns, pairRuns, traceRuns atomic.Int64
}

// NewRunner builds a runner at the given scale.
func NewRunner(sc Scale) *Runner { return &Runner{sc: sc} }

// Scale returns the runner's scale.
func (r *Runner) Scale() Scale { return r.sc }

// attach builds a fresh machine on the scale's engine and attaches bins to
// cores 0, 1, … as restarting processes.
func (r *Runner) attach(cores int, bins ...*progbin.Binary) (*machine.Machine, []*machine.Process, error) {
	m := machine.New(machine.Config{Cores: cores, Engine: r.sc.Engine})
	procs := make([]*machine.Process, len(bins))
	for i, b := range bins {
		p, err := m.Attach(i, b, machine.ProcessConfig{Restart: true})
		if err != nil {
			return nil, nil, err
		}
		procs[i] = p
	}
	return m, procs, nil
}

// window is the one measurement every figure makes: run warm seconds,
// then return each process's counter deltas over the next seconds.
func window(m *machine.Machine, warm, seconds float64, procs ...*machine.Process) []machine.Counters {
	m.RunSeconds(warm)
	d := make([]machine.Counters, len(procs))
	for i, p := range procs {
		d[i] = p.Counters()
	}
	m.RunSeconds(seconds)
	for i, p := range procs {
		d[i] = p.Counters().Sub(d[i])
	}
	return d
}

// Solo measures (and caches) an app's interference-free IPS and BPS over
// SoloSeconds after a 0.5 s warmup. A scale the run cannot honour is an
// error (Scale.validate), not a division by a zero window.
func (r *Runner) Solo(name string) (SoloRates, error) {
	if err := r.sc.validate(); err != nil {
		return SoloRates{}, err
	}
	return r.solo.get(name, func() (SoloRates, error) {
		r.soloRuns.Add(1)
		bin, err := workload.Binary(name, false)
		if err != nil {
			return SoloRates{}, err
		}
		m, ps, err := r.attach(4, bin)
		if err != nil {
			return SoloRates{}, err
		}
		d := window(m, 0.5, r.sc.SoloSeconds, ps...)[0]
		return SoloRates{
			IPS: float64(d.Insts) / r.sc.SoloSeconds,
			BPS: float64(d.Branches) / r.sc.SoloSeconds,
		}, nil
	})
}

// RunPair executes one co-location experiment: ext (high priority, plain)
// on core 0, host on core 1, the protean runtime (PC3D only) on core 2.
// Results are memoized per (host, ext, system, target) with in-flight
// deduplication. A target outside (0, 1] is an error (NaN would also defeat
// the memo: it never equals itself as a map key), as is a scale the run
// cannot honour (Scale.validate).
func (r *Runner) RunPair(host, ext string, system System, target float64) (PairResult, error) {
	if !(target > 0 && target <= 1) {
		return PairResult{}, fmt.Errorf("harness: QoS target %v outside (0, 1]", target)
	}
	if err := r.sc.validate(); err != nil {
		return PairResult{}, err
	}
	return r.pairs.get(pairKey{host, ext, system, target}, func() (PairResult, error) {
		return r.runPair(host, ext, system, target)
	})
}

func (r *Runner) runPair(host, ext string, system System, target float64) (PairResult, error) {
	r.pairRuns.Add(1)
	extSolo, err := r.Solo(ext)
	if err != nil {
		return PairResult{}, err
	}
	hostSolo, err := r.Solo(host)
	if err != nil {
		return PairResult{}, err
	}
	eb, err := workload.Binary(ext, false)
	if err != nil {
		return PairResult{}, err
	}
	hb, err := workload.Binary(host, system == SystemPC3D)
	if err != nil {
		return PairResult{}, err
	}
	m, ps, err := r.attach(4, eb, hb)
	if err != nil {
		return PairResult{}, err
	}
	st, err := fleet.AttachStack(fleet.StackConfig{
		Machine: m, Ext: ps[0], Host: ps[1], ExtSoloIPS: extSolo.IPS,
		System: system, Target: target, MaxSites: r.sc.MaxSites,
	})
	if err != nil {
		return PairResult{}, err
	}
	defer st.Close()
	d := window(m, r.sc.SettleSeconds, r.sc.MeasureSeconds, ps...)
	return PairResult{
		Host: host, Ext: ext, System: system, Target: target,
		Utilization: float64(d[1].Branches) / r.sc.MeasureSeconds / hostSolo.BPS,
		QoS:         float64(d[0].Insts) / r.sc.MeasureSeconds / extSolo.IPS,
		RuntimeFrac: st.RuntimeFrac(),
		PC3D:        st.Stats(),
	}, nil
}
