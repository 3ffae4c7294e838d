// Package pcc implements the protean code compiler: the static half of the
// co-designed system in Section III-A.
//
// pcc readies a program for runtime compilation by making two classes of
// changes: it virtualizes a subset of the edges in the control flow and
// call graphs (lowering those calls through the Edge Virtualization Table),
// and it embeds program metadata — the EVT image and the serialized,
// compressed IR — into the binary. Programs compiled without the protean
// pass are plain binaries that run identically but cannot be transformed
// online.
package pcc

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/ir/dataflow"
	"repro/internal/ir/opt"
	"repro/internal/isa"
	"repro/internal/progbin"
)

// EdgePolicy selects which edges the virtualization pass converts from
// direct to indirect operations.
type EdgePolicy int

// Edge virtualization policies.
const (
	// MultiBlockCallees virtualizes calls whose callee has more than one
	// basic block — the paper's production policy (Section III-A-1):
	// frequent enough that new variants are picked up promptly, selective
	// enough that indirect-call overhead stays negligible.
	MultiBlockCallees EdgePolicy = iota
	// AllCalls virtualizes every call edge (ablation: more dispatch
	// points, more overhead).
	AllCalls
	// NoEdges virtualizes nothing; the binary still embeds IR but the
	// runtime has no hooks (ablation/testing).
	NoEdges
)

func (p EdgePolicy) String() string {
	switch p {
	case MultiBlockCallees:
		return "multi-block-callees"
	case AllCalls:
		return "all-calls"
	case NoEdges:
		return "no-edges"
	}
	return fmt.Sprintf("edgepolicy(%d)", int(p))
}

// Options configures a compile.
type Options struct {
	// Protean enables the protean pass (edge virtualization + metadata
	// embedding). False produces a plain binary.
	Protean bool
	// Policy selects the virtualization policy; the zero value is the
	// paper's MultiBlockCallees.
	Policy EdgePolicy
	// Optimize runs the static optimization pipeline (constant folding,
	// jump threading, unreachable-code and dead-code elimination) before
	// lowering and before the IR is embedded, so runtime-compiled variants
	// start from the optimized program exactly as the paper's -O2 binaries
	// do. The module is cloned first; the caller's copy is untouched.
	Optimize bool
	// NoVet skips the semantic vet gate. By default Compile refuses
	// modules with error-severity lint findings (e.g. use-before-def) —
	// shipping them would burn online search iterations on a live host,
	// the exact overhead the system exists to avoid. Tests exercising
	// deliberately malformed inputs set NoVet.
	NoVet bool
	// VetDiags, when non-nil, receives every lint finding (all
	// severities) from the vet gate, so callers can surface warnings.
	VetDiags func(ir.Diags)
}

// Compile lowers the module to a loadable binary. The module must have been
// finalized (Module.Finalize).
//
// Unless opts.NoVet is set, the module first passes through the semantic
// vet gate: error-severity findings (use-before-def) abort the compile;
// warnings (dead stores, redundant prefetches) and infos are forwarded to
// opts.VetDiags when set.
func Compile(m *ir.Module, opts Options) (*progbin.Binary, error) {
	if !opts.NoVet {
		diags := dataflow.Lint(m)
		if opts.VetDiags != nil {
			opts.VetDiags(diags)
		}
		if n := diags.Errors(); n > 0 {
			first, _ := diags.FirstError()
			return nil, fmt.Errorf("pcc: vet: %d error finding(s), first: %s", n, first)
		}
	}
	if opts.Optimize {
		m = m.Clone()
		opt.Optimize(m)
		if err := m.Finalize(); err != nil {
			return nil, fmt.Errorf("pcc: optimized module invalid: %w", err)
		}
	}
	var cfg isa.Config
	if opts.Protean {
		cfg.Virtualize = virtualizer(opts.Policy)
	}
	prog, err := isa.Lower(m, cfg)
	if err != nil {
		return nil, fmt.Errorf("pcc: %w", err)
	}
	if err := isa.VerifyProgram(prog); err != nil {
		return nil, fmt.Errorf("pcc: generated code failed verification: %w", err)
	}
	bin := &progbin.Binary{Program: prog, Protean: opts.Protean}
	if opts.Protean {
		blob, err := ir.EncodeBytes(m)
		if err != nil {
			return nil, fmt.Errorf("pcc: embed IR: %w", err)
		}
		bin.IRBlob = blob
	}
	return bin, nil
}

func virtualizer(p EdgePolicy) func(*ir.Module, *ir.Function) bool {
	switch p {
	case MultiBlockCallees:
		return func(m *ir.Module, f *ir.Function) bool {
			return len(f.Blocks) > 1 && isCalled(m, f.Name)
		}
	case AllCalls:
		return func(m *ir.Module, f *ir.Function) bool {
			return isCalled(m, f.Name)
		}
	case NoEdges:
		return nil
	}
	return nil
}

// isCalled reports whether any call site targets name; functions that are
// never called need no EVT slot.
func isCalled(m *ir.Module, name string) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if c, ok := in.(*ir.Call); ok && c.Callee == name {
					return true
				}
			}
		}
	}
	return false
}

// Stats summarizes what the protean pass did to a binary; Figure 4's
// "edge virtualization overhead" experiments report against these counts.
type Stats struct {
	VirtualizedCalls int
	DirectCalls      int
	EVTSlots         int
	IRBlobBytes      int
	CodeWords        int
}

// StatsOf inspects a compiled binary.
func StatsOf(b *progbin.Binary) Stats {
	v, d := b.Program.CountVirtualizedCalls()
	return Stats{
		VirtualizedCalls: v,
		DirectCalls:      d,
		EVTSlots:         len(b.Program.EVT),
		IRBlobBytes:      len(b.IRBlob),
		CodeWords:        len(b.Program.Code),
	}
}
