package agentloop

import (
	"testing"

	"repro/internal/machine"
)

func TestPolicySeesEveryQuantum(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	var seen []uint64
	l := New(func(l *Loop) {
		for {
			seen = append(seen, l.Wait().Now())
		}
	})
	m.AddAgent(l)
	m.RunQuanta(5)
	l.Close()
	if len(seen) != 5 {
		t.Fatalf("policy saw %d ticks, want 5", len(seen))
	}
	q := m.Config().QuantumCycles
	for i, now := range seen {
		if now != uint64(i+1)*q {
			t.Errorf("tick %d at %d, want %d", i, now, uint64(i+1)*q)
		}
	}
}

func TestPolicyInterleavesWithMachine(t *testing.T) {
	// The policy mutates state between quanta; the interleaving must be
	// strictly synchronous (no data race, deterministic order).
	m := machine.New(machine.Config{Cores: 1})
	counter := 0
	order := []int{}
	l := New(func(l *Loop) {
		for {
			l.Wait()
			counter++
			order = append(order, counter)
		}
	})
	m.AddAgent(l)
	m.AddAgent(machine.AgentFunc(func(*machine.Machine) {
		order = append(order, -counter)
	}))
	m.RunQuanta(3)
	l.Close()
	want := []int{1, -1, 2, -2, 3, -3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWaitQuantaAndCycles(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	q := m.Config().QuantumCycles
	var atQuanta, atCycles uint64
	l := New(func(l *Loop) {
		l.Wait()
		l.Wait()
		atQuanta = l.Wait().Now()
		atCycles = l.WaitCycles(5 * q).Now()
	})
	m.AddAgent(l)
	m.RunQuanta(20)
	l.Close()
	if atQuanta != 3*q {
		t.Errorf("third Wait returned at %d, want %d", atQuanta, 3*q)
	}
	if atCycles < 9*q || atCycles > 10*q {
		t.Errorf("WaitCycles returned at %d, want ~%d", atCycles, 9*q)
	}
}

func TestPolicyReturnEarly(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	l := New(func(l *Loop) {
		l.Wait() // take one tick and return
	})
	m.AddAgent(l)
	m.RunQuanta(10) // must not deadlock
	l.Close()
}

func TestCloseBeforeStartAndIdempotent(t *testing.T) {
	l := New(func(l *Loop) {
		for {
			l.Wait()
		}
	})
	l.Close()
	l.Close()
	// Tick after close is a no-op.
	l.Tick(machine.New(machine.Config{Cores: 1}))
}

func TestCloseFromAnotherAgentsTick(t *testing.T) {
	// A supervisor agent reaping a policy mid-quantum must not wake the
	// policy goroutine while the machine is still delivering ticks: the
	// close is deferred to the quantum boundary and drained synchronously.
	m := machine.New(machine.Config{Cores: 1})
	ticks := 0
	var loopDone bool
	l := New(func(l *Loop) {
		defer func() { loopDone = true }()
		for {
			l.Wait()
			ticks++
		}
	})
	m.AddAgent(l)
	closeAt, closedOnce := 3, false
	m.AddAgent(machine.AgentFunc(func(mm *machine.Machine) {
		if ticks == closeAt && !closedOnce {
			closedOnce = true
			l.Close()
			if loopDone {
				t.Error("policy exited mid-tick; close was not deferred")
			}
		}
	}))
	m.RunQuanta(10)
	if ticks != closeAt {
		t.Errorf("policy saw %d ticks, want %d", ticks, closeAt)
	}
	if !loopDone {
		t.Error("policy goroutine never drained after deferred close")
	}
	// Further ticks and closes are no-ops.
	l.Tick(m)
	l.Close()
}

func TestCloseFromOwnPolicy(t *testing.T) {
	// A policy closing its own loop must not deadlock: the close happens
	// mid-tick, so it defers; the boundary drain then waits for the policy
	// goroutine, which has already returned.
	m := machine.New(machine.Config{Cores: 1})
	var l *Loop
	l = New(func(inner *Loop) {
		inner.Wait()
		inner.Wait()
		l.Close()
	})
	m.AddAgent(l)
	m.RunQuanta(5) // must not deadlock
	l.Close()
}

func TestCloseUnwindsParkedPolicy(t *testing.T) {
	// Closing from outside a tick unwinds a policy parked in a nested
	// WaitCycles: its deferred calls run (innermost first, seeing Closing),
	// nothing after the wait does, and the goroutine is joined by the time
	// Close returns — the reads below need no further synchronisation.
	m := machine.New(machine.Config{Cores: 1})
	var unwound []string
	var closingSeen, resumed bool
	var l *Loop
	inner := func() {
		defer func() {
			unwound = append(unwound, "inner")
			closingSeen = l.Closing()
		}()
		l.WaitCycles(100 * m.Config().QuantumCycles)
		resumed = true
	}
	l = New(func(*Loop) {
		defer func() { unwound = append(unwound, "outer") }()
		l.Wait()
		inner()
		resumed = true
	})
	m.AddAgent(l)
	m.RunQuanta(5)
	if l.Closing() || len(unwound) != 0 {
		t.Fatalf("before Close: Closing=%v unwound=%v", l.Closing(), unwound)
	}
	l.Close()
	if len(unwound) != 2 || unwound[0] != "inner" || unwound[1] != "outer" {
		t.Errorf("deferred calls ran as %v, want [inner outer]", unwound)
	}
	if !closingSeen {
		t.Error("deferred call did not see Closing during the unwind")
	}
	if resumed {
		t.Error("code after the parked Wait ran")
	}
	m.RunQuanta(2) // post-Close ticks are no-ops
}
