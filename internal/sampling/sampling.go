// Package sampling provides the runtime's two monitoring primitives
// (Section III-B-3): periodic program-counter sampling attributed to
// high-level code structures (functions, basic blocks and load sites —
// see DeepProfile), and hardware-performance-monitor readings
// (instructions, branches, cycles, shared-cache misses) turned into rates.
//
// PC samples drive introspection — which code regions are hot, and how hot
// regions change over time. HPM readings drive both introspection (host
// progress via IPC/BPC) and extrospection (co-runner progress and
// microarchitectural pressure).
package sampling

import (
	"sort"

	"repro/internal/machine"
)

// Profile is a histogram of PC samples per function name.
type Profile map[string]uint64

// Total sums all samples.
func (p Profile) Total() uint64 {
	var t uint64
	for _, n := range p {
		t += n
	}
	return t
}

// Covered reports whether fn received any samples — the signal behind
// PC3D's "Exclude Uncovered Code" heuristic.
func (p Profile) Covered(fn string) bool { return p[fn] > 0 }

// Hottest returns function names by descending sample count (ties broken
// by name for determinism) — the ordering behind "Prioritize Hotter Code".
func (p Profile) Hottest() []string {
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p[names[i]] != p[names[j]] {
			return p[names[i]] > p[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Normalized returns sample fractions per function.
func (p Profile) Normalized() map[string]float64 {
	t := p.Total()
	out := make(map[string]float64, len(p))
	if t == 0 {
		return out
	}
	for n, c := range p {
		out[n] = float64(c) / float64(t)
	}
	return out
}

// Clone copies the profile.
func (p Profile) Clone() Profile {
	out := make(Profile, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// PCSampler periodically samples one process's program counter — the
// simulation analog of sampling through the ptrace interface. It implements
// machine.Agent; register it on the machine.
type PCSampler struct {
	proc     *machine.Process
	interval uint64
	next     uint64
	window   Profile
	deep     *DeepProfile
}

// NewPCSampler samples proc every intervalCycles.
func NewPCSampler(proc *machine.Process, intervalCycles uint64) *PCSampler {
	return &PCSampler{
		proc:     proc,
		interval: intervalCycles,
		window:   make(Profile),
		deep:     NewDeepProfile(),
	}
}

// Tick takes due samples. With quantum-granularity ticks, one sample is
// taken per elapsed interval.
func (s *PCSampler) Tick(m *machine.Machine) {
	now := m.Now()
	if s.next == 0 {
		s.next = now
	}
	for s.next <= now {
		s.next += s.interval
		smp, ok := s.proc.CurrentSample()
		if !ok {
			continue
		}
		s.window[smp.Func]++
		s.deep.Add(smp.Func, smp.Block, smp.LoadID, 1)
	}
}

// Window returns the profile accumulated since the last ResetWindow.
func (s *PCSampler) Window() Profile { return s.window.Clone() }

// Lifetime returns the all-time flat profile (DeepLifetime's Flat).
func (s *PCSampler) Lifetime() Profile { return s.deep.Flat() }

// DeepLifetime returns the all-time hierarchical (function → block → site)
// profile.
func (s *PCSampler) DeepLifetime() *DeepProfile { return s.deep.Clone() }

// ResetWindow starts a fresh windowed profile (on phase change).
func (s *PCSampler) ResetWindow() { s.window = make(Profile) }

// Reading is one HPM measurement over a window of wall time.
type Reading struct {
	// Seconds is the wall-clock window length.
	Seconds float64
	// IPS and BPS are instructions and branches retired per wall second
	// (the paper's QoS and utilization metrics).
	IPS float64
	BPS float64
	// IPC and BPC are per busy (non-napping, non-slept) cycle.
	IPC float64
	BPC float64
	// LLCMissRate is misses per shared-LLC access in the window.
	LLCMissRate float64
	// LLCMissesPerSec is the memory-bandwidth pressure signal.
	LLCMissesPerSec float64
	// Insts and Branches are the raw deltas.
	Insts    uint64
	Branches uint64
}

// Meter converts one process's counter deltas into rates. Each Read returns
// rates over the window since the previous Read.
type Meter struct {
	proc    *machine.Process
	last    machine.Counters
	lastLLC uint64
	lastAcc uint64
	lastNow uint64
	started bool
}

// NewMeter builds a meter over proc.
func NewMeter(proc *machine.Process) *Meter {
	return &Meter{proc: proc}
}

// Read returns rates since the previous Read (or since construction).
// Zero-length windows return a zero Reading.
func (mt *Meter) Read(m *machine.Machine) Reading {
	now := m.Now()
	ctr := mt.proc.Counters()
	cs := m.Hierarchy().CoreStats(mt.proc.Core())
	if !mt.started {
		mt.started = true
		mt.last, mt.lastLLC, mt.lastAcc, mt.lastNow = ctr, cs.LLCMisses, cs.LLCAccesses, now
		return Reading{}
	}
	dt := now - mt.lastNow
	if dt == 0 {
		return Reading{}
	}
	d := ctr.Sub(mt.last)
	dMiss := cs.LLCMisses - mt.lastLLC
	dAcc := cs.LLCAccesses - mt.lastAcc
	mt.last, mt.lastLLC, mt.lastAcc, mt.lastNow = ctr, cs.LLCMisses, cs.LLCAccesses, now

	freq := m.Config().FreqHz
	secs := float64(dt) / freq
	busy := d.Cycles - d.NapCycles - d.SleepCycles - d.StolenCycles
	r := Reading{
		Seconds:         secs,
		IPS:             float64(d.Insts) / secs,
		BPS:             float64(d.Branches) / secs,
		LLCMissesPerSec: float64(dMiss) / secs,
		Insts:           d.Insts,
		Branches:        d.Branches,
	}
	if busy > 0 {
		r.IPC = float64(d.Insts) / float64(busy)
		r.BPC = float64(d.Branches) / float64(busy)
	}
	if dAcc > 0 {
		r.LLCMissRate = float64(dMiss) / float64(dAcc)
	}
	return r
}
