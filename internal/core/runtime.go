// Package core implements the protean code runtime — the dynamic half of
// the co-designed system (Section III-B) and the paper's primary
// contribution.
//
// The runtime attaches to a process prepared by pcc, discovers the embedded
// metadata (EVT and compressed IR), sets up a code cache, and from then on
// operates asynchronously: the host keeps executing its original code while
// the runtime compiler generates variants from the IR; finished variants
// are installed into the code cache and dispatched by rewriting an EVT slot
// — one atomic write — so execution reroutes the next time control flows
// through a virtualized edge.
//
// Asynchrony is modeled in simulated time: a compile job occupies the
// runtime for a fixed number of simulated cycles (the LLVM backend's
// ~5 ms per function). When the runtime shares the host's core, those
// cycles are stolen from the host (Figure 6's "same core" case); on a
// separate core they only consume otherwise-idle cycles (Figure 5).
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/telemetry"
)

// ErrNotProtean is returned when attaching to a process whose binary was
// not compiled by the protean pass.
var ErrNotProtean = errors.New("core: host binary is not protean (no embedded metadata)")

// ErrNotVirtualized is returned when dispatching a variant of a function
// that has no EVT slot.
var ErrNotVirtualized = errors.New("core: function has no virtualized edges")

// ErrCrashed is returned by runtime operations after Crash: the runtime
// process is gone, so it can neither compile nor touch the EVT. The host
// keeps executing whatever code the EVT currently points at — recovery is
// the supervisor's job (package supervise).
var ErrCrashed = errors.New("core: runtime has crashed")

// SameCore designates that the runtime shares the host's core.
const SameCore = -1

// Config configures a runtime instance (consumed by New, mirroring the
// machine and fleet constructor surfaces).
type Config struct {
	// Machine is the simulated machine hosting the process.
	Machine *machine.Machine
	// Host is the protean-compiled process to attach to.
	Host *machine.Process
	// RuntimeCore is the core the runtime process occupies, or SameCore to
	// share the host's core (compiles then steal host cycles). Using a
	// separate core requires it to be otherwise idle.
	RuntimeCore int
	// CompileFault, when non-nil, is consulted as each compile job
	// completes; a non-nil error fails the job (after it has burned its
	// modeled latency) instead of producing a variant. The job sequence
	// number is assigned at request time, so fault schedules keyed on it
	// are independent of completion interleaving. Used for deterministic
	// fault injection (package faults).
	CompileFault func(fn string, job uint64) error
	// Telemetry receives the runtime's counters (compiles, failures,
	// dispatches, reverts, cycles) and compile/dispatch trace events under
	// the "core" subsystem. Nil exports nothing; the cycle counters still
	// back CyclesUsed. A registry shared between runtimes (a fleet server's
	// successive sessions) holds their cumulative counts.
	Telemetry *telemetry.Registry
}

// Fixed runtime constants (tabulated in DESIGN §4).
const (
	// compileMs is the simulated cost of compiling one function, in
	// milliseconds of simulated time (the LLVM backend's ~5 ms).
	compileMs = 4
	// sampleMs is the PC sampling period in milliseconds of simulated time.
	sampleMs = 1
	// monitorCyclesPerSample accounts the monitoring cost (PC sample +
	// counter reads) attributed to the runtime each sampling period; the
	// paper's monitoring is sub-1%.
	monitorCyclesPerSample = 30
)

// Transform rewrites the cloned embedded IR before a variant is lowered.
// It runs against a private clone, so it may mutate freely. Returning an
// error aborts the job.
type Transform func(m *ir.Module) error

// Identity is the no-op transform (recompilation stress tests).
func Identity(*ir.Module) error { return nil }

// Variant is one runtime-generated code version of a function.
type Variant struct {
	// ID is unique per runtime, 1-based (0 is the original static code).
	ID int
	// Func is the transformed function.
	Func string
	// EntryPC is the variant's entry in the code cache.
	EntryPC int
	// Meta carries policy-defined data (PC3D stores the hint mask here).
	Meta any
}

type compileJob struct {
	fn        string
	transform Transform
	meta      any
	onDone    func(*Variant, error)
	finishAt  uint64
	seq       uint64
	span      telemetry.SpanID
}

// Runtime is one protean runtime attached to one host process. It
// implements machine.Agent; register it with the machine after creation.
type Runtime struct {
	m    *machine.Machine
	host *machine.Process
	cfg  Config
	// compileCost and sampleInterval are compileMs and sampleMs in cycles
	// of the machine's clock.
	compileCost, sampleInterval uint64

	baseIR  *ir.Module
	sampler *sampling.PCSampler

	jobs      []compileJob
	busyUntil uint64
	jobSeq    uint64
	crashed   bool

	variants   map[string][]*Variant
	dispatched map[string]*Variant
	nextID     int

	compiles   uint64 // compile requests, queued or completed
	lastSample uint64

	tel             *telemetry.Registry
	cCompiles       *telemetry.Counter
	cCompileFails   *telemetry.Counter
	cDispatches     *telemetry.Counter
	cReverts        *telemetry.Counter
	cCompileCycles  *telemetry.Counter
	cMonitorCycles  *telemetry.Counter
	gCodeCacheWords *telemetry.Gauge
	gVariants       *telemetry.Gauge
}

// New creates a runtime for cfg.Host on cfg.Machine: it discovers the
// program metadata (the binary's embedded IR, decoded once per binary and
// shared read-only) and prepares the code cache bookkeeping — the
// runtime-initialization step of Section III-B-1.
func New(cfg Config) (*Runtime, error) {
	m, host := cfg.Machine, cfg.Host
	if m == nil || host == nil {
		return nil, errors.New("core: Config.Machine and Config.Host are required")
	}
	if !host.Binary().Protean {
		return nil, ErrNotProtean
	}
	baseIR, err := host.Binary().IR()
	if err != nil {
		return nil, fmt.Errorf("core: attach to %q: %w", host.Name(), err)
	}
	ms := uint64(m.Config().FreqHz / 1000)
	rt := &Runtime{
		m:              m,
		host:           host,
		cfg:            cfg,
		compileCost:    compileMs * ms,
		sampleInterval: sampleMs * ms,
		baseIR:         baseIR,
		sampler:        sampling.NewPCSampler(host, sampleMs*ms),
		variants:       make(map[string][]*Variant),
		dispatched:     make(map[string]*Variant),
		nextID:         1,
	}
	rt.tel = cfg.Telemetry
	rt.cCompiles = rt.tel.Counter("core", "compiles_total", "compile jobs completed successfully")
	rt.cCompileFails = rt.tel.Counter("core", "compile_failures_total", "compile jobs that failed (fault, transform, lower, verify)")
	rt.cDispatches = rt.tel.Counter("core", "dispatches_total", "EVT slot rewrites to a variant")
	rt.cReverts = rt.tel.Counter("core", "reverts_total", "EVT slot rewrites back to static code")
	rt.cCompileCycles = rt.tel.Counter("core", "compile_cycles_total", "simulated cycles consumed by the runtime compiler")
	rt.cMonitorCycles = rt.tel.Counter("core", "monitor_cycles_total", "simulated cycles consumed by monitoring")
	rt.gCodeCacheWords = rt.tel.Gauge("core", "code_cache_words", "instruction words of installed variants")
	rt.gVariants = rt.tel.Gauge("core", "variants", "generated variants across all functions")
	return rt, nil
}

// Host returns the attached process.
func (rt *Runtime) Host() *machine.Process { return rt.host }

// IR returns the decoded embedded IR, shared with every runtime attached to
// the same binary. Callers must not mutate it; variant transforms receive
// clones.
func (rt *Runtime) IR() *ir.Module { return rt.baseIR }

// Sampler exposes the host PC sampler for policies.
func (rt *Runtime) Sampler() *sampling.PCSampler { return rt.sampler }

// Tick advances the runtime one quantum: takes PC samples, accounts
// monitoring cost, and completes finished compile jobs. A crashed runtime
// does nothing.
func (rt *Runtime) Tick(m *machine.Machine) {
	if rt.crashed {
		return
	}
	rt.sampler.Tick(m)
	now := m.Now()
	if now-rt.lastSample >= rt.sampleInterval {
		rt.cMonitorCycles.Add(monitorCyclesPerSample)
		rt.lastSample = now
	}
	for len(rt.jobs) > 0 && rt.jobs[0].finishAt <= now {
		job := rt.jobs[0]
		rt.jobs = rt.jobs[1:]
		v, err := rt.finishJob(job)
		if err != nil {
			rt.cCompileFails.Inc()
			rt.tel.Emit(telemetry.Event{At: now, Kind: telemetry.EvCompileFail, Func: job.fn, Value: float64(job.seq), Detail: err.Error()})
			rt.tel.SpanAttrs(job.span, telemetry.Str("error", err.Error()))
		} else {
			rt.cCompiles.Inc()
			rt.gCodeCacheWords.Set(float64(rt.CodeCacheWords()))
			rt.gVariants.Add(1)
			rt.tel.Emit(telemetry.Event{At: now, Kind: telemetry.EvCompileFinish, Func: job.fn, Value: float64(v.ID)})
			rt.tel.SpanAttrs(job.span, telemetry.Num("variant", float64(v.ID)))
		}
		rt.tel.EndSpan(job.span, now)
		if job.onDone != nil {
			job.onDone(v, err)
		}
	}
}

// PendingJobs reports queued-but-unfinished compiles.
func (rt *Runtime) PendingJobs() int { return len(rt.jobs) }

// RequestVariant queues an asynchronous compile of fn's IR under transform.
// The compile occupies the runtime compiler for compileMs of simulated
// time (stealing host cycles in same-core mode); when it completes, the
// variant is installed into the code cache and onDone is invoked (nil
// Variant on error). The host continues executing throughout.
func (rt *Runtime) RequestVariant(fn string, transform Transform, meta any, onDone func(*Variant, error)) error {
	if rt.crashed {
		return ErrCrashed
	}
	if rt.baseIR.Func(fn) == nil {
		return fmt.Errorf("core: request variant of unknown function %q", fn)
	}
	now := rt.m.Now()
	start := now
	if rt.busyUntil > start {
		start = rt.busyUntil
	}
	finish := start + rt.compileCost
	rt.busyUntil = finish
	rt.cCompileCycles.Add(rt.compileCost)
	rt.compiles++
	if rt.cfg.RuntimeCore == SameCore {
		rt.host.StealCycles(rt.compileCost)
	}
	seq := rt.jobSeq
	rt.jobSeq++
	rt.tel.Emit(telemetry.Event{At: now, Kind: telemetry.EvCompileStart, Func: fn, Value: float64(seq)})
	// The compile span covers queueing plus the modeled backend latency;
	// it parents under the registry's ambient span (the policy operation
	// that requested it) and closes when the job completes in Tick.
	span := rt.tel.StartSpan("core.compile", now, rt.tel.SpanParent())
	rt.tel.SpanAttrs(span, telemetry.Str("func", fn), telemetry.Num("job", float64(seq)))
	rt.jobs = append(rt.jobs, compileJob{
		fn: fn, transform: transform, meta: meta, onDone: onDone, finishAt: finish, seq: seq, span: span,
	})
	return nil
}

// finishJob does the actual work "after" the modeled compile latency:
// clone the IR, transform, lower against the host program, install.
func (rt *Runtime) finishJob(job compileJob) (*Variant, error) {
	if rt.cfg.CompileFault != nil {
		if err := rt.cfg.CompileFault(job.fn, job.seq); err != nil {
			return nil, fmt.Errorf("core: compile %q: %w", job.fn, err)
		}
	}
	clone := rt.baseIR.Clone()
	if err := job.transform(clone); err != nil {
		return nil, fmt.Errorf("core: transform %q: %w", job.fn, err)
	}
	if err := clone.Finalize(); err != nil {
		return nil, fmt.Errorf("core: transformed IR for %q invalid: %w", job.fn, err)
	}
	id := rt.nextID
	rt.nextID++
	vr, err := isa.LowerVariant(rt.host.Binary().Program, clone, job.fn, id, rt.host.CodeCursor())
	if err != nil {
		return nil, fmt.Errorf("core: lower variant of %q: %w", job.fn, err)
	}
	if err := isa.VerifyFragment(rt.host.Binary().Program, vr); err != nil {
		return nil, fmt.Errorf("core: variant of %q failed verification: %w", job.fn, err)
	}
	if err := rt.host.InstallVariant(vr); err != nil {
		return nil, fmt.Errorf("core: install variant of %q: %w", job.fn, err)
	}
	v := &Variant{ID: id, Func: job.fn, EntryPC: vr.Info.Entry, Meta: job.meta}
	rt.variants[job.fn] = append(rt.variants[job.fn], v)
	return v, nil
}

// Dispatch reroutes fn's virtualized edges to the variant — the EVT
// manager's single atomic write.
func (rt *Runtime) Dispatch(v *Variant) error {
	if rt.crashed {
		return ErrCrashed
	}
	slot := rt.host.EVT().SlotFor(v.Func)
	if slot < 0 {
		return fmt.Errorf("%w: %q", ErrNotVirtualized, v.Func)
	}
	rt.host.EVT().SetTarget(slot, v.EntryPC)
	rt.dispatched[v.Func] = v
	rt.cDispatches.Inc()
	rt.tel.Emit(telemetry.Event{At: rt.m.Now(), Kind: telemetry.EvDispatch, Func: v.Func, Value: float64(v.ID)})
	return nil
}

// Revert points fn's virtualized edges back at the original static code.
func (rt *Runtime) Revert(fn string) error {
	if rt.crashed {
		return ErrCrashed
	}
	slot := rt.host.EVT().SlotFor(fn)
	if slot < 0 {
		return fmt.Errorf("%w: %q", ErrNotVirtualized, fn)
	}
	fi, ok := rt.host.Binary().Program.FuncByName(fn)
	if !ok {
		return fmt.Errorf("core: revert %q: original entry unknown", fn)
	}
	rt.host.EVT().SetTarget(slot, fi.Entry)
	delete(rt.dispatched, fn)
	rt.cReverts.Inc()
	rt.tel.Emit(telemetry.Event{At: rt.m.Now(), Kind: telemetry.EvRevert, Func: fn})
	return nil
}

// RevertAll restores every dispatched function to its original code. It
// attempts every function even if some fail and returns the failures
// joined, in deterministic (sorted-name) order.
func (rt *Runtime) RevertAll() error {
	if rt.crashed {
		return ErrCrashed
	}
	fns := make([]string, 0, len(rt.dispatched))
	for fn := range rt.dispatched {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	var errs []error
	for _, fn := range fns {
		if err := rt.Revert(fn); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Crash models the runtime process dying (fault injection): pending compile
// jobs are dropped without their onDone callbacks, and every subsequent
// operation returns ErrCrashed. The host process is untouched — it keeps
// executing whatever the EVT currently targets, which is the paper's
// safety property. Recovery (reverting the EVT to static code and
// re-attaching a fresh runtime) belongs to package supervise.
func (rt *Runtime) Crash() {
	rt.crashed = true
	rt.jobs = nil
	rt.tel.Counter("core", "runtime_crashes_total", "runtime processes killed by fault injection").Inc()
	rt.tel.Emit(telemetry.Event{At: rt.m.Now(), Kind: telemetry.EvRuntimeCrash})
}

// Crashed reports whether Crash has been called.
func (rt *Runtime) Crashed() bool { return rt.crashed }

// Dispatched returns the currently dispatched variant of fn, or nil when
// the original code is live.
func (rt *Runtime) Dispatched(fn string) *Variant { return rt.dispatched[fn] }

// Variants lists fn's generated variants in creation order.
func (rt *Runtime) Variants(fn string) []*Variant { return rt.variants[fn] }

// Compiles counts completed-or-queued compile requests.
func (rt *Runtime) Compiles() uint64 { return rt.compiles }

// CodeCacheWords returns how many instruction words of runtime-generated
// variants have been installed into the host's code cache.
func (rt *Runtime) CodeCacheWords() int {
	return rt.host.CodeCursor() - len(rt.host.Binary().Program.Code)
}

// CyclesUsed returns the runtime's total consumed cycles (compiler plus
// monitoring) — the numerator of Figure 7 — read from its counters. On a
// shared Config.Telemetry they are the registry's cumulative cycles.
func (rt *Runtime) CyclesUsed() uint64 {
	return rt.cCompileCycles.Value() + rt.cMonitorCycles.Value()
}

// ServerCycleFraction returns CyclesUsed over all server cycles so far
// (cores × elapsed) — Figure 7's metric.
func (rt *Runtime) ServerCycleFraction() float64 {
	total := rt.m.Now() * uint64(rt.m.Config().Cores)
	if total == 0 {
		return 0
	}
	return float64(rt.CyclesUsed()) / float64(total)
}
