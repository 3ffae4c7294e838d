// Package machine simulates the multicore server protean binaries run on.
//
// It plays the role of the paper's quad-core AMD testbed: each core executes
// one attached program's simulated instructions against a shared cache
// hierarchy, with cycle-level accounting. The machine provides everything
// the protean runtime observes and manipulates on a real system:
//
//   - per-core hardware performance counters (instructions, branches,
//     cycles, shared-LLC misses) for introspection and extrospection,
//   - the current program counter for ptrace-style PC sampling,
//   - a live Edge Virtualization Table per process plus a code cache into
//     which runtime-generated variants are installed,
//   - napping duty cycles and forced sleeps (the flux QoS probe),
//   - a cycle-stealing hook that models a runtime compiler sharing the
//     host's core.
//
// Time advances in fixed quanta. Within a quantum each core runs until its
// local cycle clock reaches the quantum boundary; cross-core cache
// contention is therefore interleaved at quantum granularity. Agents
// (runtimes, monitors, load generators) are invoked at every quantum
// boundary, in simulated time — the paper's "asynchronous" runtime maps to
// agents whose work consumes simulated cycles while the host keeps running.
//
// The simulation clock is deliberately slow (default 10 MHz): all of the
// paper's metrics are ratios (normalized IPS, normalized BPS, fractions of
// server cycles), which are frequency-invariant, and a slow clock keeps
// multi-"second" experiments cheap to simulate.
package machine

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/progbin"
	"repro/internal/telemetry"
)

// Config sizes the machine.
type Config struct {
	// Cores is the number of cores (default 4, as in the paper's testbed).
	Cores int
	// FreqHz is the simulation clock (default 10e6).
	FreqHz float64
	// QuantumCycles is the scheduling/contention granularity (default 1 ms
	// of simulated time).
	QuantumCycles uint64
	// Hierarchy configures the caches; zero value uses
	// cache.DefaultHierarchy(Cores).
	Hierarchy cache.HierarchyConfig
	// Seed perturbs per-process address-stream randomness.
	Seed int64
	// Engine selects the execution engine for every attached process:
	// EngineSuperblock (the default — decoded superblocks and batched
	// cache walks) or EngineInterp (the one-instruction-at-a-time
	// semantics oracle). Both are bit-identical; Attach rejects unknown
	// names.
	Engine string
	// Telemetry receives machine-level instrumentation (quanta counter,
	// nap-state transition events under the "machine" subsystem). Nil
	// disables it at no cost. The registry must be owned by this machine:
	// it is written from the simulation goroutine without locks.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.FreqHz == 0 {
		c.FreqHz = 10e6
	}
	if c.QuantumCycles == 0 {
		c.QuantumCycles = uint64(c.FreqHz / 1000) // 1 ms
	}
	if c.Hierarchy.Cores == 0 {
		c.Hierarchy = cache.DefaultHierarchy(c.Cores)
	}
	if c.Engine == "" {
		c.Engine = DefaultEngine
	}
	return c
}

// loadMLP divides every load's stall cycles, modelling overlapping misses
// (memory-level parallelism).
const loadMLP = 4

// napWindowMs is the napping duty-cycle window in simulated milliseconds.
const napWindowMs = 5

// Agent is invoked at every quantum boundary. The protean runtime, QoS
// monitors, and load generators are agents.
type Agent interface {
	Tick(m *Machine)
}

// AgentFunc adapts a function to Agent.
type AgentFunc func(m *Machine)

// Tick calls f.
func (f AgentFunc) Tick(m *Machine) { f(m) }

// Machine is the simulated server. Not safe for concurrent use: agents run
// interleaved with execution on the caller's goroutine, which is what makes
// cycle accounting deterministic.
type Machine struct {
	cfg  Config
	hier *cache.Hierarchy
	// napWindow is napWindowMs at this machine's clock, in cycles.
	napWindow uint64
	procs     []*Process // indexed by core; nil = idle core
	agents    []Agent
	now       uint64 // global cycles
	inTick    bool
	deferred  []func()

	tel     *telemetry.Registry
	cQuanta *telemetry.Counter
}

// New builds a machine.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		cfg:       cfg,
		hier:      cache.NewHierarchy(cfg.Hierarchy),
		napWindow: napWindowMs * uint64(cfg.FreqHz/1000),
		procs:     make([]*Process, cfg.Cores),
		tel:       cfg.Telemetry,
	}
	m.cQuanta = m.tel.Counter("machine", "quanta_total", "scheduling quanta executed")
	return m
}

// Config returns the effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// Hierarchy exposes the cache model.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Now returns the global simulated cycle count.
func (m *Machine) Now() uint64 { return m.now }

// NowSeconds returns the global simulated time in seconds.
func (m *Machine) NowSeconds() float64 { return float64(m.now) / m.cfg.FreqHz }

// Cycles converts a simulated duration in seconds to cycles.
func (m *Machine) Cycles(seconds float64) uint64 {
	return uint64(seconds * m.cfg.FreqHz)
}

// Attach loads a binary onto a core and returns the process. ProcessConfig
// holds per-process knobs (restart-on-exit, request gating, DBT overlay).
// Attach fails on an out-of-range or occupied core and on an unknown
// Config.Engine.
func (m *Machine) Attach(core int, bin *progbin.Binary, cfg ProcessConfig) (*Process, error) {
	if core < 0 || core >= m.cfg.Cores {
		return nil, fmt.Errorf("machine: core %d out of range [0,%d)", core, m.cfg.Cores)
	}
	if m.procs[core] != nil {
		return nil, fmt.Errorf("machine: core %d already running %q", core, m.procs[core].Name())
	}
	p, err := newProcess(m, core, bin, cfg)
	if err != nil {
		return nil, err
	}
	m.procs[core] = p
	return p, nil
}

// Detach removes the process on core (between quanta only) and flushes the
// core's private caches. Out-of-range cores are a no-op, mirroring
// Attach's bounds check (detaching an already-empty core is likewise a
// no-op).
func (m *Machine) Detach(core int) {
	if core < 0 || core >= m.cfg.Cores {
		return
	}
	m.procs[core] = nil
	m.hier.FlushCore(core)
}

// Process returns the process on core, or nil.
func (m *Machine) Process(core int) *Process { return m.procs[core] }

// AddAgent registers an agent invoked at each quantum boundary, in
// registration order.
func (m *Machine) AddAgent(a Agent) { m.agents = append(m.agents, a) }

// InTick reports whether the machine is currently delivering quantum-
// boundary agent callbacks. Code that must not run concurrently with agents
// (e.g. shutting down an agentloop policy) checks this and uses Defer.
func (m *Machine) InTick() bool { return m.inTick }

// Defer schedules fn to run on the machine's goroutine after the current
// quantum's agent callbacks complete. Called outside a tick, fn runs
// immediately.
func (m *Machine) Defer(fn func()) {
	if !m.inTick {
		fn()
		return
	}
	m.deferred = append(m.deferred, fn)
}

// RunQuanta advances the machine n quanta.
func (m *Machine) RunQuanta(n int) {
	m.cQuanta.Add(uint64(n))
	for i := 0; i < n; i++ {
		m.now += m.cfg.QuantumCycles
		for _, p := range m.procs {
			if p != nil {
				p.eng.RunUntil(m.now)
			}
		}
		m.inTick = true
		for _, a := range m.agents {
			a.Tick(m)
		}
		m.inTick = false
		// Deferred functions may defer more work (still this boundary).
		for len(m.deferred) > 0 {
			d := m.deferred
			m.deferred = nil
			for _, fn := range d {
				fn()
			}
		}
	}
}

// RunSeconds advances the machine by a simulated duration. Time advances
// in whole scheduling quanta (QuantumCycles, default 1 ms of simulated
// time): the duration is rounded to the nearest quantum, with a minimum of
// one. It panics on a duration it cannot run — NaN, or a quantum count that
// does not fit an int — instead of converting an out-of-range float;
// commands check their flags before calling it.
func (m *Machine) RunSeconds(seconds float64) {
	quanta := seconds*m.cfg.FreqHz/float64(m.cfg.QuantumCycles) + 0.5
	if !(math.Abs(quanta) < 1<<63) { // NaN fails every comparison
		panic(fmt.Sprintf("machine: RunSeconds(%v): quantum count %v does not fit an int", seconds, quanta))
	}
	if quanta < 1 {
		quanta = 1
	}
	m.RunQuanta(int(quanta))
}
