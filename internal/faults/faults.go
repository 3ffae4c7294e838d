// Package faults is a seeded, deterministic fault-injection framework.
//
// The paper's central safety claim is that protean code is near-free *and
// safe to abandon*: a crashed or detached runtime leaves the host executing
// its original static code, and any dispatched variant can be revoked with
// one atomic EVT write (Section III-B). Exercising that claim requires
// failures — compile jobs that die, runtimes that crash mid-search, QoS
// sensors that go dark, whole servers that fall over — injected *without*
// sacrificing the simulator's reproducibility contract (bit-identical fleet
// metrics at any worker count under a fixed seed).
//
// Every fault decision here is therefore a pure function of
// (seed, server, site): a splitmix64-style hash of the fault domain, the
// server index, and a position (cycle quantum, compile-job sequence number,
// dropout window index) is compared against the configured rate. No state,
// no shared RNG streams, no dependence on execution interleaving: two
// simulations of the same server under the same Chaos config see the exact
// same fault schedule regardless of what any other goroutine does.
package faults

import (
	"fmt"
)

// Chaos configures fault injection across the stack. The zero value (and a
// nil *Chaos) injects nothing.
type Chaos struct {
	// Seed drives every fault schedule. Fleet runs default it to the fleet
	// seed so one -seed flag pins both placement and failures.
	Seed int64

	// ServerCrashProb is the probability a given server crashes at a
	// uniform-random point during the run (whole-machine failure: the
	// webservice, batch instance and runtime all stop).
	ServerCrashProb float64
	// RestartDelaySeconds is the cluster scheduler's reaction time: how long
	// after a crash the victim's batch instance is re-placed on a surviving
	// server (default 0.5).
	RestartDelaySeconds float64

	// CompileFailProb is the per-compile-job failure probability inside the
	// protean runtime (the job burns its modeled latency, then reports an
	// error instead of a variant).
	CompileFailProb float64

	// RuntimeCrashMTTFSeconds is the mean time to failure of the protean
	// runtime process itself (0 = never crashes). Crashes follow a
	// geometric-per-quantum schedule with this mean.
	RuntimeCrashMTTFSeconds float64

	// QoSDropoutProb is the probability that any given sensor window of
	// QoSDropoutSeconds goes dark (the QoS source reports no data — or NaN,
	// see QoSDropoutNaN — for the whole window).
	QoSDropoutProb float64
	// QoSDropoutSeconds is the dropout window length (default 0.2).
	QoSDropoutSeconds float64
	// QoSDropoutNaN makes dark windows report NaN readings claimed as valid
	// (a corrupted sensor) instead of reporting absence (a dead sensor).
	// Policies must survive both.
	QoSDropoutNaN bool

	// Migration fault domain: faults inside the live-migration machinery
	// itself, so the fleet's move path has to be transactional rather than
	// assume detach/land always succeed. Every decision is a pure hash of
	// (seed, domain, server, move-sequence), same contract as above.

	// MoveDetachFailProb is the probability a planned move fails before the
	// source detaches its instance (the move aborts in place; the instance
	// never leaves the source).
	MoveDetachFailProb float64
	// MoveLandFailProb is the per-attempt probability a landing fails at
	// its destination (the destination refuses the instance; the
	// coordinator retries the next eligible destination or rolls back).
	MoveLandFailProb float64
	// MoveStallMaxSeconds stretches each move's blackout by a uniform
	// extra delay in [0, max) — migration-path jitter.
	MoveStallMaxSeconds float64

	// SampleCorruptProb is the per-(server, epoch) probability the
	// contention detector's counter sample arrives corrupted: the signals
	// are scaled by a garbage factor but still claimed valid.
	SampleCorruptProb float64
	// SampleStaleProb is the per-(server, epoch) probability the detector
	// sample is stale: the sensor replays the previous epoch's sample
	// instead of fresh counters.
	SampleStaleProb float64
}

// WithDefaults fills defaulted fields.
func (c Chaos) WithDefaults() Chaos {
	if c.RestartDelaySeconds == 0 {
		c.RestartDelaySeconds = 0.5
	}
	if c.QoSDropoutSeconds == 0 {
		c.QoSDropoutSeconds = 0.2
	}
	return c
}

// Enabled reports whether any fault class is active. A probability counts
// once it is non-zero, so a negative or NaN one reaches the fleet's config
// validation instead of silently switching its class off.
func (c *Chaos) Enabled() bool {
	return c != nil && (c.ServerCrashProb != 0 || c.CompileFailProb != 0 ||
		c.RuntimeCrashMTTFSeconds > 0 || c.QoSDropoutProb != 0 ||
		c.MigrationEnabled())
}

// MigrationEnabled reports whether any migration-domain fault is active
// (probabilities as in Enabled).
func (c *Chaos) MigrationEnabled() bool {
	return c != nil && (c.MoveDetachFailProb != 0 || c.MoveLandFailProb != 0 ||
		c.MoveStallMaxSeconds > 0 || c.SampleCorruptProb != 0 || c.SampleStaleProb != 0)
}

// Fault domains keep schedules independent: the same (server, position)
// never correlates across fault classes.
const (
	domServerCrash uint64 = 0x5ec1 + iota
	domCrashTime
	domCompile
	domRuntimeCrash
	domDropout
	domMoveDetach
	domMoveLand
	domMoveStall
	domSampleCorrupt
	domSampleStale
	domCorruptFactor
)

// mix64 is the splitmix64 finalizer — a full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash folds an arbitrary key tuple into one well-mixed word.
func hash(parts ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, p := range parts {
		h = mix64(h ^ p)
	}
	return h
}

// uniform maps a key tuple to a deterministic value in [0, 1).
func uniform(parts ...uint64) float64 {
	return float64(hash(parts...)>>11) / float64(uint64(1)<<53)
}

// hashString folds a function name into the key space.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ServerCrashAt reports whether the given server crashes during a run of
// horizonSeconds and, if so, when. Pure in (Seed, server).
func (c Chaos) ServerCrashAt(server int, horizonSeconds float64) (atSeconds float64, crashed bool) {
	if c.ServerCrashProb <= 0 {
		return 0, false
	}
	if uniform(uint64(c.Seed), domServerCrash, uint64(server)) >= c.ServerCrashProb {
		return 0, false
	}
	return uniform(uint64(c.Seed), domCrashTime, uint64(server)) * horizonSeconds, true
}

// CompileFault returns a per-job fault hook compatible with
// core.Config.CompileFault, or nil when compile faults are disabled. The
// decision is pure in (Seed, server, job sequence number, function name).
func (c Chaos) CompileFault(server int) func(fn string, job uint64) error {
	if c.CompileFailProb <= 0 {
		return nil
	}
	seed, p := uint64(c.Seed), c.CompileFailProb
	srv := uint64(server)
	return func(fn string, job uint64) error {
		if uniform(seed, domCompile, srv, job, hashString(fn)) < p {
			return fmt.Errorf("faults: injected compile failure (server %d, job %d, fn %s)", server, job, fn)
		}
		return nil
	}
}

// RuntimeCrashFn returns a per-tick crash decision for the protean runtime
// on one server, or nil when runtime crashes are disabled. Each quantum
// independently crashes with probability quantum/MTTF (a geometric schedule
// with the configured mean), keyed purely on (Seed, server, quantum index).
func (c Chaos) RuntimeCrashFn(server int, freqHz float64, quantumCycles uint64) func(nowCycles uint64) bool {
	if c.RuntimeCrashMTTFSeconds <= 0 || quantumCycles == 0 {
		return nil
	}
	p := (float64(quantumCycles) / freqHz) / c.RuntimeCrashMTTFSeconds
	seed, srv := uint64(c.Seed), uint64(server)
	return func(nowCycles uint64) bool {
		return uniform(seed, domRuntimeCrash, srv, nowCycles/quantumCycles) < p
	}
}

// MoveDetachFails reports whether the given move fails before its source
// server detaches the instance. Pure in (Seed, server, move sequence).
func (c Chaos) MoveDetachFails(server int, move uint64) bool {
	if c.MoveDetachFailProb <= 0 {
		return false
	}
	return uniform(uint64(c.Seed), domMoveDetach, uint64(server), move) < c.MoveDetachFailProb
}

// MoveLandFails reports whether landing attempt `attempt` of the given move
// fails at the destination server. Pure in (Seed, server, move sequence,
// attempt), so retries against the same destination redraw independently.
func (c Chaos) MoveLandFails(server int, move uint64, attempt int) bool {
	if c.MoveLandFailProb <= 0 {
		return false
	}
	return uniform(uint64(c.Seed), domMoveLand, uint64(server), move, uint64(attempt)) < c.MoveLandFailProb
}

// MoveStallSeconds is the extra blackout jitter charged to the given move,
// uniform in [0, MoveStallMaxSeconds). Pure in (Seed, server, move
// sequence).
func (c Chaos) MoveStallSeconds(server int, move uint64) float64 {
	if c.MoveStallMaxSeconds <= 0 {
		return 0
	}
	return uniform(uint64(c.Seed), domMoveStall, uint64(server), move) * c.MoveStallMaxSeconds
}

// SampleFault classifies one detector counter sample.
type SampleFault int

// Detector-sample fault classes.
const (
	// SampleOK: the sample arrives as measured.
	SampleOK SampleFault = iota
	// SampleCorrupt: the sample's signals are scaled by CorruptFactor but
	// still claimed valid.
	SampleCorrupt
	// SampleStale: the sensor replays the previous epoch's sample.
	SampleStale
)

// SampleFaultAt classifies the detector sample server contributes at the
// given decision epoch. Corruption shadows staleness so each (server,
// epoch) has exactly one class. Pure in (Seed, server, epoch).
func (c Chaos) SampleFaultAt(server int, epoch uint64) SampleFault {
	if c.SampleCorruptProb > 0 &&
		uniform(uint64(c.Seed), domSampleCorrupt, uint64(server), epoch) < c.SampleCorruptProb {
		return SampleCorrupt
	}
	if c.SampleStaleProb > 0 &&
		uniform(uint64(c.Seed), domSampleStale, uint64(server), epoch) < c.SampleStaleProb {
		return SampleStale
	}
	return SampleOK
}

// CorruptFactor is the garbage scale applied to a corrupted sample's
// signals, uniform in [0, 4). Pure in (Seed, server, epoch).
func (c Chaos) CorruptFactor(server int, epoch uint64) float64 {
	return 4 * uniform(uint64(c.Seed), domCorruptFactor, uint64(server), epoch)
}

// DropoutFn returns a QoS-sensor dropout schedule for one server, or nil
// when dropouts are disabled: time is tiled into QoSDropoutSeconds windows
// and each window is dark with probability QoSDropoutProb, keyed purely on
// (Seed, server, window index).
func (c Chaos) DropoutFn(server int, freqHz float64) func(nowCycles uint64) bool {
	if c.QoSDropoutProb <= 0 {
		return nil
	}
	win := uint64(c.QoSDropoutSeconds * freqHz)
	if win == 0 {
		win = 1
	}
	seed, srv, p := uint64(c.Seed), uint64(server), c.QoSDropoutProb
	return func(nowCycles uint64) bool {
		return uniform(seed, domDropout, srv, nowCycles/win) < p
	}
}
