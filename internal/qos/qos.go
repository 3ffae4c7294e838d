// Package qos measures co-runner quality of service.
//
// The paper's primary QoS proxy is instructions per second relative to IPS
// running without the host (Section IV-F), obtained with a "flux" probe:
// the host is put to sleep for a short window (40 ms) once per period
// (4 s) and the co-runner's interference-free IPS is measured. FluxMonitor
// implements that mechanism. For request-driven services the paper notes
// the runtime "can be configured to use application-level metrics ... such
// as queries per second"; ThroughputQoS implements that configuration and
// drives the fluctuating-load experiment (Figure 16).
package qos

import (
	"repro/internal/loadgen"
	"repro/internal/machine"
)

// Source yields the protected application's current QoS in [0,1].
type Source interface {
	// QoS returns the latest estimate; ok is false until a first
	// measurement exists.
	QoS() (q float64, ok bool)
}

// FluxMonitor estimates co-runner QoS as IPS relative to solo IPS. It
// implements machine.Agent; register it after the processes exist.
//
// The solo reference combines two sources. Flux probes sleep the host and
// measure the co-runner running alone, exactly as in Section IV-F. In the
// scaled simulation, however, a short probe cannot re-warm a multi-MiB
// working set (the clock is ~250x slower than real hardware while caches
// are only ~3x smaller), so probe-only estimates are biased low. The paper
// grounds its IPS-as-QoS methodology in fleet-wide profiles "collected
// regularly and ubiquitously via mechanisms such as the Google Wide
// Profiler" (Section V-C); ReferenceIPS models that historical profile.
// When set, it anchors the solo estimate and probes serve as drift checks;
// when zero, the probe EWMA is used alone.
type FluxMonitor struct {
	host *machine.Process
	ext  *machine.Process

	// ReferenceIPS is the historical solo IPS profile of the protected
	// app (0 = none; rely on probes only).
	ReferenceIPS float64

	// PeriodCycles separates probe starts; ProbeCycles is the probe length.
	PeriodCycles uint64
	ProbeCycles  uint64

	nextProbe  uint64
	probing    bool
	probeEnd   uint64
	markInsts  uint64
	markCycles uint64

	normMark       uint64
	normMarkCycles uint64

	soloIPS float64
	curQoS  float64
	haveQoS bool
	probes  int
}

// NewFluxMonitor builds a monitor protecting ext from host. Period and
// probe default to 1/10 of the paper's wall-clock values (400 ms period,
// 4 ms probe — same 1% overhead ratio, denser sampling to fit short
// simulations).
func NewFluxMonitor(m *machine.Machine, host, ext *machine.Process, periodCycles, probeCycles uint64) *FluxMonitor {
	ms := uint64(m.Config().FreqHz / 1000)
	if periodCycles == 0 {
		periodCycles = 400 * ms
	}
	if probeCycles == 0 {
		probeCycles = 4 * ms
	}
	return &FluxMonitor{
		host: host, ext: ext,
		PeriodCycles: periodCycles, ProbeCycles: probeCycles,
	}
}

// Tick runs the probe schedule.
func (f *FluxMonitor) Tick(m *machine.Machine) {
	now := m.Now()
	if f.nextProbe == 0 {
		// First probe fires after one period; until then QoS is unknown.
		f.nextProbe = now + f.PeriodCycles
		f.normMark = f.ext.Counters().Insts
		f.normMarkCycles = now
		return
	}
	if f.probing && now >= f.probeEnd {
		f.probing = false
		d := f.ext.Counters().Insts - f.markInsts
		dt := float64(now-f.markCycles) / m.Config().FreqHz
		if dt > 0 && d > 0 {
			ips := float64(d) / dt
			if f.soloIPS == 0 {
				f.soloIPS = ips
			} else {
				// EWMA smooths load-dependent drift without forgetting.
				f.soloIPS = 0.5*f.soloIPS + 0.5*ips
			}
		}
		f.normMark = f.ext.Counters().Insts
		f.normMarkCycles = now
		return
	}
	if !f.probing && now >= f.nextProbe {
		// Close the normal window: QoS = normal IPS / solo estimate.
		d := f.ext.Counters().Insts - f.normMark
		dt := float64(now-f.normMarkCycles) / m.Config().FreqHz
		if solo, ok := f.SoloIPS(); ok && dt > 0 {
			f.curQoS = clamp01(float64(d) / dt / solo)
			f.haveQoS = true
		}
		// Open the probe: the host sleeps while the co-runner runs alone.
		f.host.ForceSleep(f.ProbeCycles)
		f.probing = true
		f.probeEnd = now + f.ProbeCycles
		f.nextProbe = now + f.PeriodCycles
		f.markInsts = f.ext.Counters().Insts
		f.markCycles = now
		f.probes++
	}
}

// QoS returns the last completed normal-window estimate.
func (f *FluxMonitor) QoS() (float64, bool) { return f.curQoS, f.haveQoS }

// SoloIPS returns the interference-free IPS estimate: the historical
// reference when configured (never below the probe-observed rate), else
// the probe EWMA.
func (f *FluxMonitor) SoloIPS() (float64, bool) {
	if f.ReferenceIPS > 0 {
		if f.soloIPS > f.ReferenceIPS {
			return f.soloIPS, true
		}
		return f.ReferenceIPS, true
	}
	return f.soloIPS, f.soloIPS > 0
}

// QoSOf converts an externally measured co-runner IPS into QoS against the
// current solo estimate — how PC3D scores co-runner health inside variant-
// evaluation windows between flux probes.
func (f *FluxMonitor) QoSOf(ips float64) (float64, bool) {
	solo, ok := f.SoloIPS()
	if !ok {
		return 0, false
	}
	return clamp01(ips / solo), true
}

// Probes counts completed probes.
func (f *FluxMonitor) Probes() int { return f.probes }

// ThroughputQoS measures a request-driven service's QoS as served/offered
// over a sliding window — the application-level metric configuration.
type ThroughputQoS struct {
	proc *machine.Process
	gen  *loadgen.Generator
	// WindowCycles is the measurement window.
	WindowCycles uint64

	windowEnd   uint64
	markServed  uint64
	markOffered uint64
	curQoS      float64
	haveQoS     bool
}

// throughputWindowMs is ThroughputQoS's measurement window in milliseconds
// of simulated time.
const throughputWindowMs = 100

// NewThroughputQoS monitors proc fed by gen.
func NewThroughputQoS(m *machine.Machine, proc *machine.Process, gen *loadgen.Generator) *ThroughputQoS {
	return &ThroughputQoS{proc: proc, gen: gen, WindowCycles: throughputWindowMs * uint64(m.Config().FreqHz/1000)}
}

// Tick closes measurement windows.
func (t *ThroughputQoS) Tick(m *machine.Machine) {
	now := m.Now()
	if t.windowEnd == 0 {
		t.windowEnd = now + t.WindowCycles
		t.markServed = t.proc.Counters().Completions
		t.markOffered = t.gen.Offered()
		return
	}
	if now < t.windowEnd {
		return
	}
	served := t.proc.Counters().Completions - t.markServed
	offered := t.gen.Offered() - t.markOffered
	if offered > 0 {
		// A backlog being drained can push served past offered; QoS caps
		// at 1.
		t.curQoS = clamp01(float64(served) / float64(offered))
		t.haveQoS = true
	} else {
		// No offered load: the service trivially meets QoS.
		t.curQoS = 1
		t.haveQoS = true
	}
	// Queue-aware correction: meeting the window's arrivals while a
	// backlog persists is not full QoS.
	if backlog := t.proc.WorkBudget(); backlog > offered/2 && offered > 0 {
		over := float64(backlog) / float64(offered)
		t.curQoS = clamp01(t.curQoS / (1 + over))
	}
	t.windowEnd = now + t.WindowCycles
	t.markServed = t.proc.Counters().Completions
	t.markOffered = t.gen.Offered()
}

// QoS returns the last window's served/offered ratio.
func (t *ThroughputQoS) QoS() (float64, bool) { return t.curQoS, t.haveQoS }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
