// Package agentloop adapts sequential policy code to the machine's
// quantum-tick agent model.
//
// Policies like PC3D's greedy variant search (Algorithm 1) are naturally
// sequential programs that interleave decisions with stretches of simulated
// time ("dispatch variant, run 10 ms, measure, decide"). A Loop runs such a
// policy on its own goroutine and hands control back and forth with the
// machine's Tick callback synchronously, so the simulation stays fully
// deterministic: exactly one of {machine, policy} runs at any moment.
//
// The policy is written as if it ran forever: it never sees a shutdown
// sentinel. Close unwinds it from whichever Wait it is parked in.
package agentloop

import (
	"runtime"

	"repro/internal/machine"
)

// Loop runs a sequential policy function as a machine.Agent.
type Loop struct {
	fn       func(*Loop)
	tick     chan *machine.Machine
	done     chan struct{}
	finished chan struct{}
	m        *machine.Machine // machine seen at the last Tick
	started  bool
	closed   bool
	drained  bool
	holding  bool
}

// New wraps a policy. The policy receives the Loop and calls Wait (or
// WaitCycles) to receive quantum ticks. It may return; later ticks are then
// absorbed until Close.
func New(fn func(*Loop)) *Loop {
	return &Loop{
		fn:       fn,
		tick:     make(chan *machine.Machine),
		done:     make(chan struct{}),
		finished: make(chan struct{}),
	}
}

// Tick delivers one quantum to the policy and blocks until the policy
// yields. Implements machine.Agent.
func (l *Loop) Tick(m *machine.Machine) {
	l.m = m
	if l.closed {
		// A Close deferred to the quantum boundary may not have drained yet;
		// finishing it here keeps post-Close ticks no-ops either way.
		l.drain()
		return
	}
	if !l.started {
		l.started = true
		go l.run()
	}
	l.tick <- m
	<-l.done
}

// Close shuts the policy down and, when it can do so safely, waits for the
// policy goroutine to exit. Safe to call from anywhere on the machine's
// goroutine — including from inside an agent Tick for the same machine
// (e.g. a supervisor reaping a crashed runtime's policy): closing there
// would wake the policy goroutine concurrently with the in-flight agent
// iteration, so the actual shutdown is deferred to the quantum boundary
// via machine.Defer. Idempotent.
func (l *Loop) Close() {
	if l.closed {
		return
	}
	l.closed = true
	if !l.started {
		return
	}
	if l.m != nil && l.m.InTick() {
		l.m.Defer(l.drain)
		return
	}
	l.drain()
}

// drain closes the tick channel — unwinding a policy parked in Wait — and
// waits for the policy goroutine to finish, deferred calls included, so no
// policy code ever runs concurrently with the caller. Must not be called
// from the policy goroutine itself (Close never does: policy code only runs
// while the machine is mid-tick, which takes the Defer path).
func (l *Loop) drain() {
	if l.drained || !l.started {
		return
	}
	l.drained = true
	close(l.tick)
	<-l.finished
}

func (l *Loop) run() {
	defer close(l.finished)
	l.fn(l)
	l.release()
	// The policy returned; keep absorbing ticks until Close.
	for range l.tick {
		l.done <- struct{}{}
	}
}

func (l *Loop) release() {
	if l.holding {
		l.holding = false
		l.done <- struct{}{}
	}
}

// Wait yields until the next quantum and returns the machine. It never
// returns to a policy whose loop is closing: Close unwinds the policy
// goroutine from inside the Wait it is parked in (runtime.Goexit), so the
// policy's deferred calls run and nothing after the Wait does.
func (l *Loop) Wait() *machine.Machine {
	l.release()
	m, ok := <-l.tick
	if !ok {
		runtime.Goexit()
	}
	l.holding = true
	return m
}

// WaitCycles waits until at least n cycles of simulated time have passed
// from the next observed tick.
func (l *Loop) WaitCycles(n uint64) *machine.Machine {
	m := l.Wait()
	target := m.Now() + n
	for m.Now() < target {
		m = l.Wait()
	}
	return m
}

// Closing reports whether Close has been called. A policy's deferred calls
// use it to tell an unwind from a normal return.
func (l *Loop) Closing() bool { return l.closed }
