// The epoch-barrier invariant auditor: an independent witness that the
// transactional migration protocol keeps its promise. At every decision
// epoch (and once more at the horizon) it sweeps the fleet and checks,
// from the simulator state itself rather than the coordinator's
// bookkeeping, that
//
//   - conservation: every batch instance is on exactly one server or in
//     exactly one in-flight move — hosted(alive) + in-flight(alive) +
//     stranded-on-dead == the placed instance count, always;
//   - occupancy: no server holds more than one instance (live or inbound)
//     — the state that would silently drop an arrival;
//   - monotonicity: per-server simulated clocks and instruction counters
//     never run backwards across epochs;
//   - accounting: the migration counters (landed, failed, quanta lost)
//     match the sum of the per-move records the coordinator logged.
//
// Violations are recorded, counted into fleet_audit_violations_total and
// Metrics.AuditViolations, and exported as deterministic JSON (the /audit
// endpoint and the -audit-out flag) — byte-identical at any worker count.
package fleet

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/telemetry"
)

// Audit violation kinds.
const (
	// AuditConservation: the instance population didn't sum to the placed
	// count — an instance was lost or duplicated.
	AuditConservation = "conservation"
	// AuditOccupancy: a server held more than one instance (live or
	// inbound).
	AuditOccupancy = "occupancy"
	// AuditMonotonic: a per-server clock or counter ran backwards.
	AuditMonotonic = "monotonic"
	// AuditQuanta: the blackout quanta counter drifted from the per-move
	// records.
	AuditQuanta = "quanta"
	// AuditCounter: a move-outcome counter drifted from the per-move
	// records.
	AuditCounter = "counter"
)

// AuditViolation is one invariant breach at one epoch.
type AuditViolation struct {
	// Epoch is the decision epoch (matching ContendStatus.Epoch; the final
	// horizon sweep uses the last epoch + 1).
	Epoch int
	// Kind is one of the Audit* constants.
	Kind string
	// Server is the offending server (-1 for fleet-wide checks).
	Server int
	// Detail states the observed vs expected values.
	Detail string
}

// AuditEpoch is the population census at one epoch barrier.
type AuditEpoch struct {
	Epoch     int
	AtSeconds float64
	// Hosted counts instances attached to live servers; InFlight counts
	// arrivals pending on live servers (blackouts and re-placements in
	// progress); Stranded counts instances attached to or inbound on
	// crashed servers (lost to the crash, not to migration).
	Hosted     int
	InFlight   int
	Stranded   int
	Violations int
}

// AuditReport is the auditor's full run record.
type AuditReport struct {
	// Instances is the placed batch instance population being conserved.
	Instances int
	Epochs    []AuditEpoch
	// Violations is every breach in epoch order.
	Violations []AuditViolation
}

// Clean reports a run with no invariant violations.
func (r *AuditReport) Clean() bool { return len(r.Violations) == 0 }

// WriteJSON renders the report as deterministic JSON: fixed field order,
// canonical float formatting, no reflection.
func (r *AuditReport) WriteJSON(w io.Writer) error {
	var b strings.Builder
	ff := telemetry.FormatFloat
	clean := "false"
	if r.Clean() {
		clean = "true"
	}
	fmt.Fprintf(&b, "{\n  \"instances\": %d,\n  \"epochs_checked\": %d,\n  \"violations\": %d,\n  \"clean\": %s,\n",
		r.Instances, len(r.Epochs), len(r.Violations), clean)
	b.WriteString("  \"epochs\": [")
	for i, ep := range r.Epochs {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    {\"epoch\": %d, \"at_seconds\": %s, \"hosted\": %d, \"in_flight\": %d, \"stranded\": %d, \"violations\": %d}",
			ep.Epoch, ff(ep.AtSeconds), ep.Hosted, ep.InFlight, ep.Stranded, ep.Violations)
	}
	b.WriteString("\n  ],\n  \"violation_log\": [")
	for i, v := range r.Violations {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n    {\"epoch\": %d, \"kind\": %s, \"server\": %d, \"detail\": %s}",
			v.Epoch, telemetry.JSONString(v.Kind), v.Server, telemetry.JSONString(v.Detail))
	}
	b.WriteString("\n  ]\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// auditor accumulates the report across epoch barriers. All state is
// touched only in the single-threaded coordinator sections.
type auditor struct {
	sims []*serverSim
	rep  AuditReport

	// Expectations accumulated from the coordinator's move records,
	// cross-checked against the live counters each epoch.
	expectLost uint64
	expectMig  uint64
	expectFail uint64
	lastEpoch  int
}

func newAuditor(f *Fleet, sims []*serverSim) *auditor {
	a := &auditor{sims: sims}
	for _, s := range sims {
		if s.host != nil {
			a.rep.Instances++
		}
	}
	return a
}

// snapshot returns the report so far for publication. The epoch and
// violation logs are append-only, so the copy's slices stay valid prefixes
// and are never written again.
func (a *auditor) snapshot() *AuditReport {
	rep := a.rep
	return &rep
}

// recordMove folds one move record into the audit expectations.
func (a *auditor) recordMove(rec MoveRecord) {
	a.expectLost += rec.QuantaLost
	if rec.Outcome == MoveLanded {
		a.expectMig++
	} else {
		a.expectFail++
	}
}

func (a *auditor) violate(ep *AuditEpoch, kind string, server int, format string, args ...any) {
	a.rep.Violations = append(a.rep.Violations, AuditViolation{
		Epoch: ep.Epoch, Kind: kind, Server: server,
		Detail: fmt.Sprintf(format, args...),
	})
	ep.Violations++
}

// check sweeps the fleet at one epoch barrier, after every server's read.
// lost/mig/fail are the live counter values to cross-check against the
// move records.
func (a *auditor) check(epoch int, t float64, lost, mig, fail uint64) {
	a.lastEpoch = epoch
	ep := AuditEpoch{Epoch: epoch, AtSeconds: t}
	for i, s := range a.sims {
		occ := 0
		if s.host != nil {
			occ = 1
		}
		p := len(s.pending)
		if occ+p > 1 {
			a.violate(&ep, AuditOccupancy, i, "hosting %d with %d inbound", occ, p)
		}
		if s.up(t) {
			ep.Hosted += occ
			ep.InFlight += p
		} else {
			ep.Stranded += occ + p
		}
		if s.cur.now < s.prev.now {
			a.violate(&ep, AuditMonotonic, i, "clock ran backwards: %d after %d", s.cur.now, s.prev.now)
		}
		if s.cur.ws.Insts < s.prev.ws.Insts {
			a.violate(&ep, AuditMonotonic, i, "instruction counter ran backwards: %d after %d", s.cur.ws.Insts, s.prev.ws.Insts)
		}
	}
	if got := ep.Hosted + ep.InFlight + ep.Stranded; got != a.rep.Instances {
		a.violate(&ep, AuditConservation, -1,
			"%d instances accounted (hosted %d + in-flight %d + stranded %d), placed %d",
			got, ep.Hosted, ep.InFlight, ep.Stranded, a.rep.Instances)
	}
	if lost != a.expectLost {
		a.violate(&ep, AuditQuanta, -1, "quanta counter %d, move records sum to %d", lost, a.expectLost)
	}
	if mig != a.expectMig {
		a.violate(&ep, AuditCounter, -1, "migrations counter %d, landed records %d", mig, a.expectMig)
	}
	if fail != a.expectFail {
		a.violate(&ep, AuditCounter, -1, "failure counter %d, failed records %d", fail, a.expectFail)
	}
	a.rep.Epochs = append(a.rep.Epochs, ep)
}
