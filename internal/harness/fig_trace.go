package harness

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// traceSample is one point of the Figure 16 time series.
type traceSample struct {
	t           float64
	load        float64
	hostUtil    float64
	wsQoS       float64
	runtimeFrac float64
	nap         float64
}

// traceSamples is the Figure 16 series length; figtimeline buckets events
// on the same grid.
const traceSamples = 30

// traceRun is one system's memoized Figure 16 run: the sampled series, the
// registry holding its counters, event trace and spans (figtimeline and
// figspans render those), and the clock that converts their cycle stamps.
type traceRun struct {
	series []traceSample
	reg    *telemetry.Registry
	freqHz float64
}

// trace runs (once per system) the Figure 16 experiment: libquantum (host)
// co-located with web-search under the fluctuating load trace, sampled at
// regular intervals.
func (r *Runner) trace(system System) (traceRun, error) {
	if system != SystemPC3D && system != SystemReQoS {
		return traceRun{}, fmt.Errorf("harness: trace experiment supports PC3D and ReQoS, not %v", system)
	}
	return r.traces.get(system, func() (traceRun, error) { return r.runTrace(system) })
}

func (r *Runner) runTrace(system System) (traceRun, error) {
	r.traceRuns.Add(1)
	const hostName, wsName = "libquantum", "web-search"
	hostSolo, err := r.Solo(hostName)
	if err != nil {
		return traceRun{}, err
	}
	wsBin, err := workload.Binary(wsName, false)
	if err != nil {
		return traceRun{}, err
	}
	hb, err := workload.Binary(hostName, system == SystemPC3D)
	if err != nil {
		return traceRun{}, err
	}

	// Measure the webservice's solo peak capacity (requests/second).
	cm := machine.New(machine.Config{Cores: 4, Engine: r.sc.Engine})
	cp, err := cm.Attach(0, wsBin, machine.ProcessConfig{Gated: true})
	if err != nil {
		return traceRun{}, err
	}
	capacity := loadgen.MeasureCapacity(cm, cp, int(2*cm.Config().FreqHz/float64(cm.Config().QuantumCycles)))

	// The measured experiment. The registry supplies the runtime-cycle
	// series (and, for figtimeline, the event trace) without hand-carried
	// accumulators.
	reg := telemetry.New(telemetry.Config{})
	m := machine.New(machine.Config{Cores: 4, Engine: r.sc.Engine, Telemetry: reg})
	ws, err := m.Attach(0, wsBin, machine.ProcessConfig{Gated: true})
	if err != nil {
		return traceRun{}, err
	}
	host, err := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
	if err != nil {
		return traceRun{}, err
	}
	gen := loadgen.NewGenerator(ws, loadgen.Figure16(r.sc.TraceSeconds), capacity)
	m.AddAgent(gen)
	st, err := fleet.AttachStack(fleet.StackConfig{
		Machine: m, Ext: ws, Host: host, Gen: gen,
		System: system, Target: 0.95, MaxSites: r.sc.MaxSites, Telemetry: reg,
	})
	if err != nil {
		return traceRun{}, err
	}
	defer st.Close()

	// rtCycles reads the runtime's cumulative cycle spend from the
	// telemetry registry (zero without a runtime).
	rtCycles := func() float64 {
		return float64(reg.CounterValue("core", "compile_cycles_total") +
			reg.CounterValue("core", "monitor_cycles_total"))
	}
	hostMeter := sampling.NewMeter(host)
	hostMeter.Read(m)
	run := traceRun{reg: reg, freqHz: m.Config().FreqHz}
	interval := r.sc.TraceSeconds / traceSamples
	lastUsed := rtCycles()
	for i := 0; i < traceSamples; i++ {
		m.RunSeconds(interval)
		hr := hostMeter.Read(m)
		q, _ := st.Source.QoS()
		used := rtCycles()
		run.series = append(run.series, traceSample{
			t:           m.NowSeconds(),
			load:        gen.CurrentLoad(m),
			hostUtil:    hr.BPS / hostSolo.BPS,
			wsQoS:       q,
			runtimeFrac: (used - lastUsed) / (interval * run.freqHz * float64(m.Config().Cores)),
			nap:         host.NapIntensity(),
		})
		lastUsed = used
	}
	return run, nil
}

// Figure16 reproduces Figure 16: the dynamic behaviour of libquantum
// running with web-search under fluctuating load, for PC3D and ReQoS. The
// load pattern is high for the first third of the run, low for the middle
// third, and high again (the paper's 900 s compressed to the scale's
// TraceSeconds).
func (r *Runner) Figure16() (*Table, error) {
	pc, err := r.trace(SystemPC3D)
	if err != nil {
		return nil, err
	}
	rq, err := r.trace(SystemReQoS)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Figure 16",
		Title: "Dynamic behaviour of libquantum running with web-search (fluctuating load)",
		Columns: []string{
			"t(s)", "load", "PC3D host util", "ReQoS host util",
			"PC3D ws QoS", "ReQoS ws QoS", "PC3D runtime %", "PC3D nap",
		},
	}
	for i, p := range pc.series {
		q := rq.series[i]
		t.AddRow(
			fmt.Sprintf("%.1f", p.t), fmt.Sprintf("%.2f", p.load),
			pct(p.hostUtil), pct(q.hostUtil),
			pct(p.wsQoS), pct(q.wsQoS),
			pct(p.runtimeFrac), fmt.Sprintf("%.2f", p.nap),
		)
	}
	t.Notes = append(t.Notes,
		"paper: PC3D reverts libquantum to the original full-speed variant during the low-load middle third",
		"runtime-cycle spikes appear at the start of each high-load search (Figure 16f)")
	return t, nil
}

// TraceSummary condenses the Figure 16 series into phase means, used by
// tests and benches to assert the shape without eyeballing the series.
type TraceSummary struct {
	HighLoadUtil float64 // mean host util during high-load thirds
	LowLoadUtil  float64 // mean host util during the low-load third
	// HighLoadQoS is the webservice's mean QoS during the settled part of
	// the high-load thirds (the paper plots second-averaged QoS; single
	// evaluation-probe windows are not representative).
	HighLoadQoS float64
}

// SummarizeTrace computes phase means for one system's trace run.
func (r *Runner) SummarizeTrace(system System) (TraceSummary, error) {
	run, err := r.trace(system)
	if err != nil {
		return TraceSummary{}, err
	}
	var s TraceSummary
	var hiSum, hiN, loSum, loN, qSum, qN float64
	third := r.sc.TraceSeconds / 3
	for _, p := range run.series {
		// Skip transition samples near the load steps (searches run there).
		slack := r.sc.TraceSeconds / 10
		inLow := p.t > third+slack && p.t < 2*third
		inHigh := (p.t > slack && p.t < third) || (p.t > 2*third+slack)
		if inLow {
			loSum += p.hostUtil
			loN++
		}
		if inHigh {
			hiSum += p.hostUtil
			hiN++
			qSum += p.wsQoS
			qN++
		}
	}
	if hiN > 0 {
		s.HighLoadUtil = hiSum / hiN
	}
	if loN > 0 {
		s.LowLoadUtil = loSum / loN
	}
	if qN > 0 {
		s.HighLoadQoS = qSum / qN
	}
	return s, nil
}
