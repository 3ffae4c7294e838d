package ir

import (
	"fmt"
	"strings"
)

// Severity ranks a diagnostic. Error-severity findings make a module unfit
// for compilation (pcc refuses them); warnings flag likely-unintended code
// that still executes correctly; infos surface facts useful to a human or
// to a policy (e.g. a prefetch candidate the search will never try).
type Severity int

// Diagnostic severities, ordered from least to most severe.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Pos locates a diagnostic inside a module: module → function → block →
// instruction. Finer-grained fields may be empty/negative when the finding
// applies to a coarser scope.
type Pos struct {
	// Module is the module name; empty for positions built before the
	// module is known.
	Module string
	// Func is the function name, or empty for module-level findings.
	Func string
	// Block is the block name, or empty for function-level findings. When
	// Block is empty but Instr is set, Instr is an absolute instruction
	// index (the lowered-program PC).
	Block string
	// Instr is the instruction index within Block (or the absolute PC when
	// Block is empty); -1 means the finding is not instruction-scoped.
	Instr int
	// Term marks the finding as being on the block's terminator rather
	// than an instruction.
	Term bool
}

// NoInstr is the Instr value for findings that are not instruction-scoped.
const NoInstr = -1

func (p Pos) String() string {
	var parts []string
	if p.Module != "" {
		parts = append(parts, "module "+p.Module)
	}
	if p.Func != "" {
		parts = append(parts, "func "+p.Func)
	}
	if p.Block != "" {
		parts = append(parts, "block %"+p.Block)
	}
	switch {
	case p.Term:
		parts = append(parts, "terminator")
	case p.Instr >= 0 && p.Block != "":
		parts = append(parts, fmt.Sprintf("instr #%d", p.Instr))
	case p.Instr >= 0:
		parts = append(parts, fmt.Sprintf("pc #%d", p.Instr))
	}
	if len(parts) == 0 {
		return "<unknown>"
	}
	return strings.Join(parts, ", ")
}

// Diag is one located, severity-tagged finding.
type Diag struct {
	Sev Severity
	// Rule is the stable kebab-case identifier of the check that fired
	// (e.g. "use-before-def"). Tools filter and golden tests key on it.
	Rule string
	Pos  Pos
	Msg  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s[%s] %s: %s", d.Sev, d.Rule, d.Pos, d.Msg)
}

// Diags is a list of findings in deterministic report order.
type Diags []Diag

// Errors counts error-severity findings.
func (ds Diags) Errors() int { return ds.count(SevError) }

// Warnings counts warning-severity findings.
func (ds Diags) Warnings() int { return ds.count(SevWarn) }

// Infos counts info-severity findings.
func (ds Diags) Infos() int { return ds.count(SevInfo) }

func (ds Diags) count(sev Severity) int {
	n := 0
	for _, d := range ds {
		if d.Sev == sev {
			n++
		}
	}
	return n
}

// FirstError returns the first error-severity finding, or a zero Diag and
// false if there is none.
func (ds Diags) FirstError() (Diag, bool) {
	for _, d := range ds {
		if d.Sev == SevError {
			return d, true
		}
	}
	return Diag{}, false
}
