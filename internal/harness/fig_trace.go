package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/pc3d"
	"repro/internal/phase"
	"repro/internal/qos"
	"repro/internal/reqos"
	"repro/internal/sampling"
	"repro/internal/telemetry"
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

// runTrace executes the Figure 16 experiment for one system: libquantum
// (host) co-located with web-search under the fluctuating load trace,
// sampled at regular intervals. The returned registry holds the run's
// counters and event trace (figtimeline renders the latter).
func (r *Runner) runTrace(system System, samples int) ([]traceSample, *telemetry.Registry, error) {
	const hostName, wsName = "libquantum", "web-search"
	hostSolo, err := r.Solo(hostName)
	if err != nil {
		return nil, nil, err
	}

	// Measure the webservice's solo peak capacity (requests/second).
	wsBin, err := r.binary(wsName, false)
	if err != nil {
		return nil, nil, err
	}
	cm := machine.New(machine.Config{Cores: 4, Engine: r.sc.Engine})
	cp, err := cm.Attach(0, wsBin, machine.ProcessConfig{Gated: true})
	if err != nil {
		return nil, nil, err
	}
	capacity := loadgen.MeasureCapacity(cm, cp, int(2*cm.Config().FreqHz/float64(cm.Config().QuantumCycles)))

	// The measured experiment. The registry supplies the runtime-cycle
	// series (and, for figtimeline, the event trace) without hand-carried
	// accumulators.
	reg := telemetry.New(telemetry.Config{})
	m := machine.New(machine.Config{Cores: 4, Engine: r.sc.Engine, Telemetry: reg})
	wsBin2, err := r.binary(wsName, false)
	if err != nil {
		return nil, nil, err
	}
	ws, err := m.Attach(0, wsBin2, machine.ProcessConfig{Gated: true})
	if err != nil {
		return nil, nil, err
	}
	hb, err := r.binary(hostName, system == SystemPC3D)
	if err != nil {
		return nil, nil, err
	}
	host, err := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
	if err != nil {
		return nil, nil, err
	}

	gen := loadgen.NewGenerator(ws, loadgen.Figure16(r.sc.TraceSeconds), capacity)
	m.AddAgent(gen)
	tq := qos.NewThroughputQoS(m, ws, gen)
	m.AddAgent(tq)

	var rt *core.Runtime
	switch system {
	case SystemPC3D:
		rt, err = core.New(core.Config{Machine: m, Host: host, RuntimeCore: 2, Telemetry: reg})
		if err != nil {
			return nil, nil, err
		}
		m.AddAgent(rt)
		extSig := func(mm *machine.Machine) phase.Signature {
			return phase.Signature{Rate: gen.CurrentLoad(mm)}
		}
		ctrl := pc3d.New(pc3d.Config{
			Runtime: rt, Steady: tq, Window: &qos.ThroughputWindow{Proc: ws, Gen: gen}, ExtSig: extSig,
			Target: 0.95, MaxSites: r.sc.MaxSites, Telemetry: reg,
		})
		defer ctrl.Close()
		m.AddAgent(ctrl)
	case SystemReQoS:
		m.AddAgent(reqos.New(reqos.Config{Host: host, Source: tq, Target: 0.95}))
	default:
		return nil, nil, fmt.Errorf("harness: trace experiment supports PC3D and ReQoS, not %v", system)
	}

	// rtCycles reads the runtime's cumulative cycle spend from the
	// telemetry registry; the per-sample delta replaces the old
	// hand-carried rt.CyclesUsed() accumulator.
	rtCycles := func() float64 {
		return float64(reg.CounterValue("core", "compile_cycles_total") +
			reg.CounterValue("core", "monitor_cycles_total"))
	}
	hostMeter := sampling.NewMeter(host)
	hostMeter.Read(m)
	var series []traceSample
	interval := r.sc.TraceSeconds / float64(samples)
	lastUsed := rtCycles()
	for i := 0; i < samples; i++ {
		m.RunSeconds(interval)
		hr := hostMeter.Read(m)
		q, _ := tq.QoS()
		s := traceSample{
			t:        m.NowSeconds(),
			load:     gen.CurrentLoad(m),
			hostUtil: hr.BPS / hostSolo.BPS,
			wsQoS:    q,
			nap:      host.NapIntensity(),
		}
		if rt != nil {
			used := rtCycles()
			dt := interval * m.Config().FreqHz * float64(m.Config().Cores)
			s.runtimeFrac = (used - lastUsed) / dt
			lastUsed = used
		}
		series = append(series, s)
	}
	return series, reg, nil
}

// Figure16 reproduces Figure 16: the dynamic behaviour of libquantum
// running with web-search under fluctuating load, for PC3D and ReQoS. The
// load pattern is high for the first third of the run, low for the middle
// third, and high again (the paper's 900 s compressed to the scale's
// TraceSeconds).
func (r *Runner) Figure16() (*Table, error) {
	const samples = 30
	pcSeries, _, err := r.runTrace(SystemPC3D, samples)
	if err != nil {
		return nil, err
	}
	rqSeries, _, err := r.runTrace(SystemReQoS, samples)
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
	for i := range pcSeries {
		p, q := pcSeries[i], rqSeries[i]
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
	const samples = 30
	series, _, err := r.runTrace(system, samples)
	if err != nil {
		return TraceSummary{}, err
	}
	var s TraceSummary
	var hiSum, hiN, loSum, loN, qSum, qN float64
	third := r.sc.TraceSeconds / 3
	for _, p := range series {
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
