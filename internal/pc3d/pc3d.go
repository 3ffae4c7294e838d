// Package pc3d implements Protean Code for Cache Contention in Datacenters
// (Section IV): a protean runtime policy that dynamically inserts and
// removes non-temporal memory access hints in a batch host, mixing cache
// pressure reduction with napping so that a high-priority co-runner meets
// its QoS target while the host's throughput is maximized.
//
// PC3D is implemented entirely against the protean runtime's public
// surface (core.Runtime), "requiring no changes to the basic protean code
// compiler setup": it reads PC samples and the embedded IR to reduce the
// variant search space (Section IV-C), walks the space with the greedy
// search of Algorithm 1, evaluates each variant online with the nap-
// intensity binary search of Algorithm 2, and reacts to host-phase and
// co-phase changes by reverting and re-searching.
package pc3d

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/agentloop"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/phase"
	"repro/internal/qos"
	"repro/internal/sampling"
	"repro/internal/telemetry"
)

// Config configures a controller (consumed by New, mirroring the machine
// and fleet constructor surfaces).
type Config struct {
	// Runtime is the attached protean runtime driving the host. Required.
	Runtime *core.Runtime
	// Steady provides continuous QoS estimates (e.g. *qos.FluxMonitor).
	Steady qos.Source
	// Window scores evaluation windows during variant probes.
	Window qos.WindowScorer
	// ExtSig produces the external app's phase signature each check
	// (progress rate and, when available, hot-code vector). Optional.
	ExtSig func(m *machine.Machine) phase.Signature
	// Target is the co-runner QoS target (default 0.95).
	Target float64
	// MaxSites caps the number of load sites searched (0 = all). The paper
	// searches all surviving sites; the cap exists for scaled-down bench
	// runs.
	MaxSites int
	// NoBoundsReuse disables Algorithm 1's nap-bound shrinking: every
	// variant evaluation binary-searches the full [0,1] nap range and the
	// greedy pass never terminates early on a collapsed bracket. Ablation
	// only; the paper's search always reuses bounds.
	NoBoundsReuse bool
	// Telemetry receives the controller's counters (searches, probes,
	// dropouts, violations) and QoS/dropout trace events under the "pc3d"
	// subsystem. Nil exports nothing; the counters still back Stats. A
	// registry shared between controllers (a fleet server's successive
	// sessions) holds their cumulative counts.
	Telemetry *telemetry.Registry
}

// Fixed policy constants (tabulated in DESIGN §4). Durations are
// milliseconds of simulated time.
const (
	// warmupMs precedes the first decision (profile + solo estimates must
	// exist).
	warmupMs = 200
	// settleMs follows every dispatch or nap change before measuring,
	// covering the co-runner's cache re-warm transient.
	settleMs = 150
	// windowMs is the measurement window of one nap-intensity probe in
	// Algorithm 2. It must dominate the co-runner's re-warm time (the
	// scaled simulation re-warms a multi-MiB set in ~10^6 cycles).
	windowMs = 150
	// napTolerance ends the binary search when the nap bracket is this
	// tight.
	napTolerance = 0.1
	// checkMs is the steady-state monitoring period.
	checkMs = 200
	// adjustStep is the nap feedback step outside searches.
	adjustStep = 0.05
	// compileRetries is how many times a failed compile of one variant is
	// retried (with exponential backoff) before the function is skipped for
	// that mask.
	compileRetries = 3
	// compileBackoffMs is the wait before the first compile retry, doubling
	// per attempt.
	compileBackoffMs = 8
)

// Stats expose controller activity for the evaluation harness.
type Stats struct {
	Searches     int
	VariantEvals int
	NapProbes    int
	Compiles     int
	PhaseChanges int
	// SearchAborts counts searches abandoned because the co-phase changed
	// mid-search (the measurements would mix phases).
	SearchAborts int
	// BestMaskSize is the hint count of the currently dispatched best
	// variant (0 when running the original).
	BestMaskSize int
	// CurrentNap is the nap intensity currently applied.
	CurrentNap float64
	// CompileFailures counts compile jobs that failed even after retries.
	CompileFailures int
	// CompileRetries counts individual retry attempts after failed compiles.
	CompileRetries int
	// SensorDropouts counts QoS readings discarded as missing or invalid
	// (NaN/Inf): the controller holds its last safe setting through them.
	SensorDropouts int
}

// Controller is the PC3D decision engine for one host/co-runner pair. It
// implements machine.Agent.
type Controller struct {
	rt     *core.Runtime
	host   *machine.Process
	steady qos.Source
	win    qos.WindowScorer
	cfg    Config

	loop    *agentloop.Loop
	m       *machine.Machine // set at the policy's first tick
	space   SearchSpace
	cophase *phase.CoPhase
	extSig  func(m *machine.Machine) phase.Signature

	// mask is the live hint vector (load ID → hinted).
	mask map[int]bool
	// cache maps per-function mask keys to compiled variants.
	cache map[string]*core.Variant

	hostMeter  *sampling.Meter
	searched   bool    // a search ran in the current co-phase
	napFloor   float64 // the search's converged nap; steady relax stops here
	violations int     // consecutive sub-target steady readings

	tel         *telemetry.Registry
	cSearches   *telemetry.Counter
	cEvals      *telemetry.Counter
	cProbes     *telemetry.Counter
	cPhases     *telemetry.Counter
	cAborts     *telemetry.Counter
	cRetries    *telemetry.Counter
	cFails      *telemetry.Counter
	cDropouts   *telemetry.Counter
	cViolations *telemetry.Counter
}

// New builds a controller from cfg. cfg.Runtime must already be attached
// to the host and registered on the machine.
func New(cfg Config) *Controller {
	if cfg.Target == 0 {
		cfg.Target = 0.95
	}
	c := &Controller{
		rt:        cfg.Runtime,
		host:      cfg.Runtime.Host(),
		steady:    cfg.Steady,
		win:       cfg.Window,
		cfg:       cfg,
		cophase:   phase.NewCoPhase(),
		extSig:    cfg.ExtSig,
		mask:      make(map[int]bool),
		cache:     make(map[string]*core.Variant),
		hostMeter: sampling.NewMeter(cfg.Runtime.Host()),
	}
	c.tel = cfg.Telemetry
	c.cSearches = c.tel.Counter("pc3d", "searches_total", "Algorithm 1 greedy searches started")
	c.cEvals = c.tel.Counter("pc3d", "variant_evals_total", "variant evaluations (Algorithm 2 invocations)")
	c.cProbes = c.tel.Counter("pc3d", "nap_probes_total", "nap-intensity measurement windows")
	c.cPhases = c.tel.Counter("pc3d", "phase_changes_total", "co-phase changes observed")
	c.cAborts = c.tel.Counter("pc3d", "search_aborts_total", "searches abandoned on mid-search phase change")
	c.cRetries = c.tel.Counter("pc3d", "compile_retries_total", "compile retry attempts after failures")
	c.cFails = c.tel.Counter("pc3d", "compile_failures_total", "compiles abandoned after all retries")
	c.cDropouts = c.tel.Counter("pc3d", "sensor_dropouts_total", "QoS readings discarded as missing or invalid")
	c.cViolations = c.tel.Counter("pc3d", "qos_violations_total", "steady-state QoS readings below target")
	c.loop = agentloop.New(c.policy)
	return c
}

// Tick implements machine.Agent.
func (c *Controller) Tick(m *machine.Machine) { c.loop.Tick(m) }

// Close stops the controller's policy goroutine.
func (c *Controller) Close() { c.loop.Close() }

// Stats returns a snapshot of controller activity: the counters plus live
// state. On a shared Config.Telemetry the counts are the registry's, not
// this controller's alone.
func (c *Controller) Stats() Stats {
	return Stats{
		Searches:        int(c.cSearches.Value()),
		VariantEvals:    int(c.cEvals.Value()),
		NapProbes:       int(c.cProbes.Value()),
		Compiles:        int(c.rt.Compiles()),
		PhaseChanges:    int(c.cPhases.Value()),
		SearchAborts:    int(c.cAborts.Value()),
		BestMaskSize:    len(maskIDs(c.mask)),
		CurrentNap:      c.host.NapIntensity(),
		CompileFailures: int(c.cFails.Value()),
		CompileRetries:  int(c.cRetries.Value()),
		SensorDropouts:  int(c.cDropouts.Value()),
	}
}

// Space returns the search space of the current phase (valid after the
// first search).
func (c *Controller) Space() SearchSpace { return c.space }

// wait parks the policy for at least ms milliseconds of simulated time.
// Closing the controller unwinds the policy from here (agentloop.Loop.Wait),
// so no caller checks for shutdown.
func (c *Controller) wait(ms uint64) {
	c.loop.WaitCycles(ms * uint64(c.m.Config().FreqHz/1000))
}

// policy is the sequential decision loop (runs on the agentloop goroutine
// until Close unwinds it).
func (c *Controller) policy(l *agentloop.Loop) {
	c.m = l.Wait()
	c.wait(warmupMs)
	c.hostMeter.Read(c.m) // baseline

	target := c.cfg.Target
	for {
		if c.observePhases() {
			// Co-phase change: revert to original code at full speed and
			// re-evaluate from scratch (Section V-D's dynamic behaviour).
			// The extra settle lets the co-runner's cache state and the
			// flux windows flush the boundary transient before the next
			// reading is trusted.
			c.cPhases.Inc()
			c.searched = false
			c.violations = 0
			c.setMaskOriginal()
			c.setNap(0)
			c.wait(2 * checkMs)
		}
		q, ok := c.steady.QoS()
		if ok && (math.IsNaN(q) || math.IsInf(q, 0)) {
			// Corrupted sensor reading claimed as valid: treat it like a
			// dropout rather than propagating NaN into nap arithmetic.
			c.cDropouts.Inc()
			c.tel.Emit(telemetry.Event{At: c.m.Now(), Kind: telemetry.EvSensorDropout})
			ok = false
		}
		if ok && q >= target {
			c.violations = 0
		}
		if ok && q < target {
			c.cViolations.Inc()
			c.tel.Emit(telemetry.Event{At: c.m.Now(), Kind: telemetry.EvQoSViolation, Value: q})
		}
		switch {
		case !ok:
			// No estimate (warming up, or the sensor went dark): hold the
			// last safe nap and mask; decisions resume on fresh data.
		case q >= target && c.host.NapIntensity() > 0 && !c.searched:
			// Headroom before any search: relax the nap.
			c.setNap(c.host.NapIntensity() - adjustStep)
		case q >= target+0.04 && c.host.NapIntensity() > c.napFloor:
			// Clear headroom after a search: relax gently toward the
			// search's converged nap, never below it.
			next := c.host.NapIntensity() - adjustStep/2
			if next < c.napFloor {
				next = c.napFloor
			}
			c.setNap(next)
		case q >= target:
			// Target met: hold.
		case !c.searched:
			// QoS violated in this co-phase. Isolated sub-target readings
			// follow cold starts and phase boundaries (the co-runner's
			// working set re-warms over a few hundred ms); three
			// consecutive readings commit to the (expensive) search.
			c.violations++
			if c.violations >= 3 {
				c.runSearch()
			}
		default:
			// QoS violated after a search settled: feedback the nap up —
			// capped below 1 so the host always trickles progress and its
			// phase signature stays observable.
			next := c.host.NapIntensity() + adjustStep
			if next > 0.98 {
				next = 0.98
			}
			c.setNap(next)
		}
		c.wait(checkMs)
	}
}

// observePhases feeds host and external signatures to the co-phase
// detector.
func (c *Controller) observePhases() bool {
	changed := false
	hostProf := c.rt.Sampler().Window()
	c.rt.Sampler().ResetWindow()
	if hostProf.Total() > 0 {
		sig := phase.Signature{Hot: hostProf.Normalized()}
		if c.cophase.Observe("host", sig) {
			changed = true
		}
	}
	if c.extSig != nil {
		if c.cophase.Observe("ext", c.extSig(c.m)) {
			changed = true
		}
	}
	return changed
}

// runSearch executes Algorithm 1 over the current phase's search space.
// A co-phase change mid-search aborts it: measurements from different
// phases are not comparable, so the controller reverts to original code
// and lets the monitoring loop re-decide in the new phase.
func (c *Controller) runSearch() {
	c.cSearches.Inc()
	c.searched = true

	// The search span roots one causal tree: every variant_eval (and the
	// probes and compiles underneath) parents into it via the registry's
	// ambient parent. Left open if the controller is closed mid-search.
	sp := c.tel.StartSpan("pc3d.search", c.m.Now(), 0)
	prevParent := c.tel.SetSpanParent(sp)
	defer func() {
		c.tel.SetSpanParent(prevParent)
		if !c.loop.Closing() {
			c.tel.EndSpan(sp, c.m.Now())
		}
	}()

	aborted := func() bool {
		if !c.observePhases() {
			return false
		}
		c.cPhases.Inc()
		c.cAborts.Inc()
		c.tel.SpanAttrs(sp, telemetry.Str("status", "aborted"))
		c.searched = false
		c.violations = 0
		c.setMaskOriginal()
		c.setNap(0)
		return true
	}

	prof := c.rt.Sampler().DeepLifetime()
	c.space = BuildSearchSpace(c.rt.IR(), prof)
	sites := c.space.Sites
	if c.cfg.MaxSites > 0 && len(sites) > c.cfg.MaxSites {
		sites = sites[:c.cfg.MaxSites]
	}
	c.tel.SpanAttrs(sp, telemetry.Num("sites", float64(len(sites))))
	if len(sites) == 0 {
		// Nothing to transform: pure napping fallback.
		nap, _ := c.variantEvalMask(nil, 0, 1)
		c.setNap(nap)
		c.napFloor = nap
		return
	}

	// Evaluate variant 0 (no hints) and variant 1 (all hints) to bound the
	// nap range.
	mask0 := map[int]bool{}
	mask1 := make(map[int]bool, len(sites))
	for _, id := range sites {
		mask1[id] = true
	}
	nap0, r0 := c.variantEvalMask(mask0, 0, 1)
	if aborted() {
		return
	}
	nap1, r1 := c.variantEvalMask(mask1, 0, 1)
	if aborted() {
		return
	}
	napUB, napLB := nap0, nap1
	cur := cloneMask(mask1)
	best := cloneMask(mask1)
	bestNap, bestR := nap1, r1
	// Variant 0 stays a candidate: when hints cost the host more than they
	// relieve pressure (reuse-heavy hosts like bst), the original code at
	// its measured nap is the right answer and the greedy pass — which can
	// terminate immediately on a collapsed nap bracket — must not shadow it.
	if r0 > bestR {
		best = cloneMask(mask0)
		bestNap, bestR = nap0, r0
	}

	// Greedy pass: revoke hints in decreasing-importance order, keeping
	// revocations that improve host performance at QoS-satisfying nap.
	for _, id := range sites {
		if !c.cfg.NoBoundsReuse && napLB >= napUB-1e-9 {
			break
		}
		lb, ub := napLB, napUB
		if c.cfg.NoBoundsReuse {
			lb, ub = 0, 1
		}
		cur[id] = false
		napM, rM := c.variantEvalMask(cur, lb, ub)
		if aborted() {
			return
		}
		if bestR < rM {
			bestR, bestNap = rM, napM
			best = cloneMask(cur)
			napUB = napM
		} else {
			cur[id] = true // reject the revocation
		}
	}

	// Dispatch the winner and settle at its nap intensity.
	c.applyMask(best)
	c.tel.SpanAttrs(sp, telemetry.Num("best_mask", float64(len(maskIDs(best)))), telemetry.Num("best_nap", bestNap))
	c.setNap(bestNap)
	c.napFloor = bestNap
}

// variantEvalMask is Algorithm 2: dispatch the variant for mask, then
// binary-search the nap intensity within [napLB, napUB] for the lowest
// value satisfying the QoS target, returning that nap and the host's BPS
// there.
func (c *Controller) variantEvalMask(mask map[int]bool, napLB, napUB float64) (nap, bps float64) {
	c.cEvals.Inc()
	// The eval span nests under the search span (ambient parent) and in
	// turn becomes the ambient parent of the compiles applyMask triggers.
	// Like the search span it stays open if the controller is closed
	// mid-evaluation.
	sp := c.tel.StartSpan("pc3d.variant_eval", c.m.Now(), c.tel.SpanParent())
	c.tel.SpanAttrs(sp, telemetry.Num("mask_size", float64(len(maskIDs(mask)))))
	prevParent := c.tel.SetSpanParent(sp)
	defer func() {
		c.tel.SetSpanParent(prevParent)
		if !c.loop.Closing() {
			c.tel.SpanAttrs(sp, telemetry.Num("nap", nap), telemetry.Num("bps", bps))
			c.tel.EndSpan(sp, c.m.Now())
		}
	}()
	c.applyMask(mask)
	// measure probes one nap intensity: the co-runner's QoS over a window
	// and the host's BPS there.
	measure := func(at float64) (float64, float64) {
		m := c.m
		psp := c.tel.StartSpan("pc3d.probe", m.Now(), sp)
		c.tel.SpanAttrs(psp, telemetry.Num("nap", at))
		c.setNap(at)
		ssp := c.tel.StartSpan("pc3d.settle", m.Now(), psp)
		c.wait(settleMs)
		c.tel.EndSpan(ssp, m.Now())
		// A dark or corrupted QoS sensor invalidates the window; re-measure
		// up to three times before giving up on this probe.
		for attempt := 0; ; attempt++ {
			c.win.Mark(m)
			c.hostMeter.Read(m)
			wsp := c.tel.StartSpan("pc3d.window", m.Now(), psp)
			c.wait(windowMs)
			c.tel.EndSpan(wsp, m.Now())
			q, qok := c.win.Score(m)
			r := c.hostMeter.Read(m)
			c.cProbes.Inc()
			if qok && !math.IsNaN(q) && !math.IsInf(q, 0) {
				c.tel.EndSpan(psp, m.Now())
				return q, r.BPS
			}
			c.cDropouts.Inc()
			c.tel.Emit(telemetry.Event{At: m.Now(), Kind: telemetry.EvSensorDropout})
			if attempt >= 2 {
				// Still no signal: fail the probe conservatively. A probe
				// that "misses QoS" drives the binary search toward more
				// napping, which can never hurt the co-runner.
				c.tel.EndSpan(psp, m.Now())
				return -1, r.BPS
			}
		}
	}
	lo, hi := napLB, napUB
	loRaised := false
	for hi-lo > napTolerance {
		cur := (lo + hi) / 2
		if q, r := measure(cur); q >= c.cfg.Target {
			hi = cur
			bps = r
		} else {
			lo = cur
			loRaised = true
		}
	}
	if !loRaised && hi > lo {
		// Every probe satisfied QoS, so the requirement may be the bracket
		// floor itself (possibly zero nap). One extra probe resolves it —
		// otherwise the tolerance would leave residual throttling on
		// variants that need none.
		if q, r := measure(lo); q >= c.cfg.Target {
			return lo, r
		}
	}
	if bps == 0 {
		// Bracket collapsed without a satisfying measurement (or the
		// window never met QoS): measure once at the upper bound.
		if q, r := measure(hi); q >= c.cfg.Target {
			bps = r
		}
	}
	return hi, bps
}

// applyMask makes the host execute the variant described by mask:
// functions whose bits are all clear revert to original code; others get a
// (cached or freshly compiled) variant dispatched.
func (c *Controller) applyMask(mask map[int]bool) {
	for _, fn := range c.space.Funcs() {
		ids := c.funcSiteIDs(fn)
		key := maskKey(fn, ids, mask)
		anySet := false
		for _, id := range ids {
			if mask[id] {
				anySet = true
				break
			}
		}
		if !anySet {
			if c.rt.Dispatched(fn) != nil {
				_ = c.rt.Revert(fn) // ErrCrashed: the supervisor owns recovery
			}
			continue
		}
		if v := c.cache[key]; v != nil {
			if c.rt.Dispatched(fn) != v {
				_ = c.rt.Dispatch(v) // ErrCrashed: the supervisor owns recovery
			}
			continue
		}
		// Compile asynchronously and wait for the runtime to deliver it.
		// Transient failures retry with exponential backoff; a function
		// that still fails keeps its current code for this mask — the
		// search just measures the variant without that flip.
		var got *core.Variant
		backoff := uint64(compileBackoffMs)
		for attempt := 0; ; attempt++ {
			v, cerr := c.compileOnce(fn, mask, key)
			if cerr == nil {
				got = v
				break
			}
			if attempt >= compileRetries {
				c.cFails.Inc()
				break
			}
			c.cRetries.Inc()
			c.wait(backoff)
			backoff *= 2
		}
		if got == nil {
			continue
		}
		c.cache[key] = got
		_ = c.rt.Dispatch(got) // ErrCrashed: the supervisor owns recovery
	}
	c.mask = cloneMask(mask)
}

// compileOnce requests one variant compile and waits for its callback.
func (c *Controller) compileOnce(fn string, mask map[int]bool, key string) (*core.Variant, error) {
	var got *core.Variant
	var cerr error
	done := false
	err := c.rt.RequestVariant(fn, core.NTTransform(cloneMask(mask)), key, func(v *core.Variant, err error) {
		got, cerr, done = v, err, true
	})
	if err != nil {
		return nil, err
	}
	for !done {
		c.loop.Wait()
	}
	return got, cerr
}

func (c *Controller) funcSiteIDs(fn string) []int {
	var ids []int
	for _, id := range c.space.Sites {
		if c.space.FuncOf[id] == fn {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

func (c *Controller) setMaskOriginal() {
	// A crashed runtime cannot touch the EVT; the supervisor owns recovery.
	_ = c.rt.RevertAll()
	c.mask = make(map[int]bool)
}

func (c *Controller) setNap(f float64) {
	c.host.SetNapIntensity(f)
}

func maskIDs(m map[int]bool) []int {
	var ids []int
	for id, on := range m {
		if on {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

func cloneMask(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k, v := range m {
		if v {
			out[k] = true
		}
	}
	return out
}

// maskKey identifies a function variant by the hinted subset of its sites.
func maskKey(fn string, ids []int, mask map[int]bool) string {
	var b strings.Builder
	b.WriteString(fn)
	b.WriteByte(':')
	for _, id := range ids {
		if mask[id] {
			fmt.Fprintf(&b, "%d,", id)
		}
	}
	return b.String()
}
