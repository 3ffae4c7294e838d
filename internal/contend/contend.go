// Package contend implements online contention detection and migration
// planning for the fleet: the control loop the paper's warehouse-scale
// story needs between "counters exist" and "placement reacts".
//
// The detector ingests one telemetry snapshot per server per decision
// epoch — CPI, MPKI, LLC miss rate and offered utilization, the same
// signals Intel's platform-resource-manager samples from the PMU — into
// per-server rolling windows, and flags servers whose windowed CPI sits
// above a fleet-relative quantile threshold. Two guards keep verdicts
// stable: hysteresis (a server enters the contended set above
// quantile·Enter and leaves only below quantile·Exit, so the band between
// the two thresholds never flips a verdict) and a cooldown that pins every
// fresh verdict for a fixed number of epochs. An MPKI gate keeps
// compute-bound spikes from being misread as cache contention.
//
// Everything is a pure function of (seed, window contents): no wall
// clocks, no randomness outside the seeded tie-break hash, no dependence
// on observation order beyond the epoch sequence itself. Feeding the same
// samples in the same epochs yields bit-identical verdicts at any worker
// count.
package contend

import (
	"fmt"
	"sort"
)

// Sample is one per-server observation over a detector window.
type Sample struct {
	// CPI is active (non-idle, non-slept) cycles per retired instruction
	// of the latency-sensitive tenant — the primary interference signal.
	CPI float64
	// MPKI is shared-LLC misses per kilo-instruction across the server
	// (webservice + batch) — the memory-boundedness gate.
	MPKI float64
	// MissRate is shared-LLC misses per second — bandwidth pressure,
	// exported for observability.
	MissRate float64
	// Util is the server's offered webservice load in [0,1].
	Util float64
	// Valid marks a usable observation. Invalid samples (crashed or
	// zero-progress servers) clear the server's window and verdict.
	Valid bool
}

// Config tunes the detector (consumed by New; zero values take defaults).
type Config struct {
	// Window is the rolling window length in samples (default 4).
	Window int
	// Quantile picks the fleet-relative threshold base: the q-quantile of
	// per-server windowed CPI scores (default 0.75).
	Quantile float64
	// Enter and Exit are the hysteresis band multipliers applied to the
	// quantile base: a server becomes contended at score ≥ base·Enter and
	// stops only at score ≤ base·Exit (defaults 1.25 / 1.05). Exit is
	// clamped below Enter so the band cannot invert.
	Enter float64
	Exit  float64
	// Cooldown pins every fresh verdict for this many epochs (default 2),
	// so even a threshold sitting exactly on a noisy score cannot flap.
	Cooldown int
	// MinSamples is how many valid samples a server needs before it can be
	// flagged (default Window): a cold window says nothing yet.
	MinSamples int
	// Seed salts deterministic tie-breaks in the planner. The detector
	// itself never draws randomness; the seed is part of the decision
	// tuple only so equal-measure ties resolve reproducibly.
	Seed int64
}

// WithDefaults returns the config with zero fields defaulted and the
// hysteresis band made consistent.
func (c Config) WithDefaults() Config {
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = 0.75
	}
	if c.Enter <= 0 {
		c.Enter = 1.25
	}
	if c.Exit <= 0 {
		c.Exit = 1.05
	}
	if c.Exit > c.Enter {
		c.Exit = c.Enter
	}
	if c.Cooldown < 0 {
		c.Cooldown = 0
	} else if c.Cooldown == 0 {
		c.Cooldown = 2
	}
	if c.MinSamples <= 0 || c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	return c
}

// mpkiGate requires a candidate's windowed MPKI to reach this multiple of
// the fleet median before it can *enter* the contended set: high CPI
// without cache misses is not our contention.
const mpkiGate = 1.0

// State is one server's detector view after an Observe call.
type State struct {
	// Server is the server index.
	Server int
	// Score is the windowed mean CPI (0 while the window is empty).
	Score float64
	// MPKI, MissRate and Util are windowed means of the other signals.
	MPKI     float64
	MissRate float64
	Util     float64
	// Samples is how many valid samples the window currently holds.
	Samples int
	// Contended is the current verdict.
	Contended bool
	// Cooldown is how many more epochs the verdict is pinned (0 = free).
	Cooldown int
	// FlippedAt is the epoch of the last verdict transition (-1 = never).
	FlippedAt int
}

// window is a fixed-capacity ring of samples.
type window struct {
	buf  []Sample
	head int // next write slot
	n    int // filled entries
}

func (w *window) push(s Sample) {
	w.buf[w.head] = s
	w.head = (w.head + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

func (w *window) reset() { w.head, w.n = 0, 0 }

// means returns the windowed mean of each signal.
func (w *window) means() (cpi, mpki, miss, util float64) {
	if w.n == 0 {
		return 0, 0, 0, 0
	}
	for i := 0; i < w.n; i++ {
		s := w.buf[(w.head-1-i+2*len(w.buf))%len(w.buf)]
		cpi += s.CPI
		mpki += s.MPKI
		miss += s.MissRate
		util += s.Util
	}
	n := float64(w.n)
	return cpi / n, mpki / n, miss / n, util / n
}

// Detector is the streaming contention detector for a fixed-size fleet.
type Detector struct {
	cfg   Config
	win   []window
	st    []State
	epoch int
	// enter/exit are the thresholds computed by the latest Observe
	// (0 until enough servers have warm windows).
	enter, exit float64
	medMPKI     float64
}

// New builds a detector for n servers.
func New(n int, cfg Config) *Detector {
	cfg = cfg.WithDefaults()
	d := &Detector{cfg: cfg, win: make([]window, n), st: make([]State, n)}
	for i := range d.win {
		d.win[i].buf = make([]Sample, cfg.Window)
		d.st[i] = State{Server: i, FlippedAt: -1}
	}
	return d
}

// Epoch returns how many Observe calls have been made.
func (d *Detector) Epoch() int { return d.epoch }

// Thresholds returns the enter/exit CPI thresholds from the latest Observe
// (both 0 until enough windows are warm to form a quantile).
func (d *Detector) Thresholds() (enter, exit float64) { return d.enter, d.exit }

// quantileOf returns the q-quantile of vals by linear interpolation over
// the sorted values — deterministic, no randomness.
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Evict clears one server's rolling window and releases its verdict
// immediately: a crashed server carries no signal, and keeping its stale
// window warm would pin the fleet quantile on readings from a machine that
// no longer exists — exactly what a stale sensor replaying old counters
// would otherwise cause. The coordinator calls this for dead servers
// before Observe, so no fault mode (including stale-sample injection) can
// keep a corpse in the threshold population.
func (d *Detector) Evict(server int) {
	if server < 0 || server >= len(d.win) {
		return
	}
	d.win[server].reset()
	st := &d.st[server]
	if st.Contended {
		st.Contended = false
		st.FlippedAt = d.epoch + 1 // released by the next Observe's epoch
	}
	st.Cooldown = 0
	st.Score, st.MPKI, st.MissRate, st.Util, st.Samples = 0, 0, 0, 0, 0
}

// Observe ingests one fleet-wide sample vector (index = server), advances
// every rolling window, recomputes the fleet-relative thresholds, and
// returns the per-server verdicts. len(samples) must equal the detector's
// server count.
func (d *Detector) Observe(samples []Sample) []bool {
	if len(samples) != len(d.win) {
		panic(fmt.Sprintf("contend: Observe got %d samples for %d servers", len(samples), len(d.win)))
	}
	d.epoch++
	for i, s := range samples {
		st := &d.st[i]
		if !s.Valid {
			// A dead or stalled server carries no signal: forget its
			// window and release any verdict immediately.
			d.win[i].reset()
			if st.Contended {
				st.Contended = false
				st.FlippedAt = d.epoch
			}
			st.Cooldown = 0
			st.Score, st.MPKI, st.MissRate, st.Util, st.Samples = 0, 0, 0, 0, 0
			continue
		}
		d.win[i].push(s)
		st.Score, st.MPKI, st.MissRate, st.Util = d.win[i].means()
		st.Samples = d.win[i].n
	}

	// Fleet-relative thresholds over servers with warm windows.
	var scores, mpkis []float64
	for i := range d.st {
		if d.st[i].Samples >= d.cfg.MinSamples {
			scores = append(scores, d.st[i].Score)
			mpkis = append(mpkis, d.st[i].MPKI)
		}
	}
	if len(scores) >= 2 {
		base := quantileOf(scores, d.cfg.Quantile)
		d.enter = base * d.cfg.Enter
		d.exit = base * d.cfg.Exit
		d.medMPKI = quantileOf(mpkis, 0.5)
	} else {
		d.enter, d.exit, d.medMPKI = 0, 0, 0
	}

	out := make([]bool, len(d.st))
	for i := range d.st {
		st := &d.st[i]
		if st.Samples < d.cfg.MinSamples || d.enter == 0 {
			out[i] = st.Contended
			continue
		}
		if st.Cooldown > 0 {
			st.Cooldown--
			out[i] = st.Contended
			continue
		}
		switch {
		case !st.Contended && st.Score >= d.enter && st.MPKI >= mpkiGate*d.medMPKI:
			st.Contended = true
			st.Cooldown = d.cfg.Cooldown
			st.FlippedAt = d.epoch
		case st.Contended && st.Score <= d.exit:
			st.Contended = false
			st.Cooldown = d.cfg.Cooldown
			st.FlippedAt = d.epoch
		}
		out[i] = st.Contended
	}
	return out
}

// States returns a copy of every server's detector state, index order.
func (d *Detector) States() []State {
	return append([]State(nil), d.st...)
}

// Contended counts servers currently flagged.
func (d *Detector) Contended() int {
	n := 0
	for i := range d.st {
		if d.st[i].Contended {
			n++
		}
	}
	return n
}
