package fleet

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/pc3d"
	"repro/internal/phase"
	"repro/internal/qos"
	"repro/internal/reqos"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// StackConfig describes the paper's unit of evaluation: one co-located
// server's QoS monitor and mitigation policy over a latency-sensitive Ext
// and a batch Host already attached to Machine.
type StackConfig struct {
	Machine   *machine.Machine
	Ext, Host *machine.Process
	// Gen is Ext's load generator. Nil means Ext is saturated: QoS is then
	// a FluxMonitor's IPS against ExtSoloIPS; otherwise it is served over
	// offered throughput.
	Gen        *loadgen.Generator
	ExtSoloIPS float64
	System     System
	Target     float64
	MaxSites   int
	// Telemetry receives the runtime's, policy's and supervisor's
	// instruments (nil exports none of them).
	Telemetry *telemetry.Registry
	// Add registers each agent the stack creates (nil = Machine.AddAgent).
	// The fleet passes serverSim.gate, so a migration switches the whole
	// stack off.
	Add func(machine.Agent)
	// Fault hooks (faults.Chaos's per-server schedules); all optional.
	CompileFault func(string, uint64) error
	RuntimeCrash func(nowCycles uint64) bool
	Dropout      func(nowCycles uint64) bool
	DropNaN      bool
}

// Stack is an attached monitor + mitigation policy.
type Stack struct {
	// Source is the QoS monitor (*qos.FluxMonitor or *qos.ThroughputQoS).
	Source qos.Source
	sup    *supervise.Supervisor
	ctrl   *pc3d.Controller // the live session's controller
}

// AttachStack registers the monitor and then the system's policy. PC3D's
// runtime (core 2) and controller always run under a supervise.Supervisor —
// Section III-B's safety floor holds wherever a stack does — which, while
// the runtime is healthy, ticks runtime then policy exactly as registering
// the two in that order would.
func AttachStack(c StackConfig) (*Stack, error) {
	m, add := c.Machine, c.Add
	if add == nil {
		add = m.AddAgent
	}
	st := &Stack{}
	var win qos.WindowScorer
	var extSig func(*machine.Machine) phase.Signature
	if gen := c.Gen; gen == nil {
		flux := qos.NewFluxMonitor(m, c.Host, c.Ext, 0, 0)
		flux.ReferenceIPS = c.ExtSoloIPS
		st.Source, win = flux, &qos.FluxWindow{Flux: flux, Ext: c.Ext}
		extSig = func(*machine.Machine) phase.Signature {
			solo, _ := flux.SoloIPS()
			return phase.Signature{Rate: solo}
		}
		add(flux)
	} else {
		tq := qos.NewThroughputQoS(m, c.Ext, gen)
		st.Source, win = tq, &qos.ThroughputWindow{Proc: c.Ext, Gen: gen}
		extSig = func(mm *machine.Machine) phase.Signature {
			return phase.Signature{Rate: gen.CurrentLoad(mm)}
		}
		add(tq)
	}
	switch c.System {
	case SystemPC3D:
		src := st.Source
		if c.Dropout != nil {
			src = &faults.FlakySource{Src: src, M: m, Drop: c.Dropout, NaN: c.DropNaN}
			win = &faults.FlakyWindow{Win: win, Drop: c.Dropout, NaN: c.DropNaN}
		}
		build := func() (*supervise.Session, error) {
			rt, err := core.New(core.Config{
				Machine: m, Host: c.Host, RuntimeCore: 2,
				CompileFault: c.CompileFault, Telemetry: c.Telemetry,
			})
			if err != nil {
				return nil, err
			}
			st.ctrl = pc3d.New(pc3d.Config{
				Runtime: rt, Steady: src, Window: win, ExtSig: extSig,
				Target: c.Target, MaxSites: c.MaxSites, Telemetry: c.Telemetry,
			})
			return &supervise.Session{Runtime: rt, Policy: st.ctrl, Close: st.ctrl.Close}, nil
		}
		sup, err := supervise.New(m, c.Host, build, supervise.Config{CrashFn: c.RuntimeCrash, Telemetry: c.Telemetry})
		if err != nil {
			return nil, err
		}
		st.sup = sup
		add(sup)
	case SystemReQoS:
		add(reqos.New(reqos.Config{Host: c.Host, Source: st.Source, Target: c.Target}))
	case SystemNone:
		// Co-location with no mitigation.
	}
	return st, nil
}

// Close shuts the policy session down (end of run or eviction, not a
// crash). Idempotent.
func (st *Stack) Close() {
	if st.sup != nil {
		st.sup.Close()
	}
}

// RuntimeFrac is the live protean runtime's share of server cycles (0
// without one).
func (st *Stack) RuntimeFrac() float64 {
	if st.sup == nil || st.sup.Runtime() == nil {
		return 0
	}
	return st.sup.Runtime().ServerCycleFraction()
}

// Stats returns the live PC3D controller's stats (zero for other systems).
func (st *Stack) Stats() pc3d.Stats {
	if st.ctrl == nil {
		return pc3d.Stats{}
	}
	return st.ctrl.Stats()
}
