// Package isa defines the simulated machine instruction set that protean
// binaries execute on, and the code generator that lowers IR to it.
//
// The ISA stands in for x86-64 in the paper. It is deliberately small but
// carries everything the evaluation depends on:
//
//   - ALU/const/branch instructions with real control-flow semantics (loop
//     trip counts execute for real, so instruction and branch counts are
//     honest),
//   - loads/stores with address-generator operands that the machine turns
//     into concrete address streams against a shared cache hierarchy,
//   - a PREFETCH instruction with a non-temporal flag (the prefetchnta
//     analog) plus an NT flag on loads,
//   - direct calls and EVT-indirect calls. The latter are the virtualized
//     edges of Section III-A-1: they dispatch through a mutable Edge
//     Virtualization Table slot, which is how the runtime reroutes execution
//     to new code variants without stopping the program.
package isa

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Op enumerates machine opcodes.
type Op uint8

// Machine opcodes.
const (
	// OpALU computes Dst = X <bin> Y.
	OpALU Op = iota
	// OpConst sets Dst = Imm.
	OpConst
	// OpLoad reads through the address generator into Dst.
	OpLoad
	// OpStore writes through the address generator.
	OpStore
	// OpPrefetch touches the stream without stalling.
	OpPrefetch
	// OpBr branches to Target when X <cmp> Y holds, else falls through.
	OpBr
	// OpJmp branches unconditionally to Target.
	OpJmp
	// OpCall pushes a frame and jumps to Target (a function entry PC).
	OpCall
	// OpCallEVT pushes a frame and jumps to the PC stored in EVT slot
	// EVTSlot. This is a virtualized edge.
	OpCallEVT
	// OpRet pops a frame.
	OpRet
	// OpHalt stops the program (end of the entry function).
	OpHalt
)

var opNames = [...]string{
	"alu", "const", "load", "store", "prefetch",
	"br", "jmp", "call", "callevt", "ret", "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// AddrGen is the resolved address-stream descriptor of one static memory
// instruction: the ir.Access with the global bound to a concrete base/size.
type AddrGen struct {
	// Base is the region's base address in the program's address space.
	Base uint64
	// Size is the region size in bytes.
	Size uint64
	// Pattern, Stride, HotBytes mirror ir.Access with defaults applied.
	Pattern  ir.Pattern
	Stride   uint64
	HotBytes uint64
	// Site is the module-unique memory-site index; the machine keeps
	// per-site cursor state (sequential position, chase pointer) there.
	Site int
}

// Inst is one machine instruction.
type Inst struct {
	Op  Op
	Dst uint16
	X   uint16
	// Y operand: register (YIsReg) or immediate.
	YIsReg bool
	YReg   uint16
	YImm   int64

	Bin ir.BinKind
	Cmp ir.CmpKind

	// Target is the branch/jump/call destination PC.
	Target int
	// EVTSlot indexes the Edge Virtualization Table for OpCallEVT.
	EVTSlot int

	// Gen is the address generator for memory ops.
	Gen AddrGen
	// LoadID is the static IR load site for OpLoad (-1 otherwise).
	LoadID int
	// NT flags a non-temporal load or prefetch.
	NT bool
	// Lead, for OpPrefetch, warms Lead bytes ahead of the site's stream
	// position without advancing it (runtime software prefetching).
	Lead int64
}

func (in Inst) String() string {
	switch in.Op {
	case OpALU:
		return fmt.Sprintf("r%d = %s r%d, %s", in.Dst, in.Bin, in.X, in.yString())
	case OpConst:
		return fmt.Sprintf("r%d = %d", in.Dst, in.YImm)
	case OpLoad:
		nt := ""
		if in.NT {
			nt = " !nt"
		}
		return fmt.Sprintf("r%d = load site%d%s", in.Dst, in.Gen.Site, nt)
	case OpStore:
		return fmt.Sprintf("store %s, site%d", in.yString(), in.Gen.Site)
	case OpPrefetch:
		nt := ""
		if in.NT {
			nt = "nta"
		}
		return fmt.Sprintf("prefetch%s site%d", nt, in.Gen.Site)
	case OpBr:
		return fmt.Sprintf("br r%d %s %s -> %d", in.X, in.Cmp, in.yString(), in.Target)
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.Target)
	case OpCall:
		return fmt.Sprintf("call %d", in.Target)
	case OpCallEVT:
		return fmt.Sprintf("call [evt+%d]", in.EVTSlot)
	case OpRet:
		return "ret"
	case OpHalt:
		return "halt"
	}
	return "?"
}

func (in Inst) yString() string {
	if in.YIsReg {
		return fmt.Sprintf("r%d", in.YReg)
	}
	return fmt.Sprintf("%d", in.YImm)
}

// BlockInfo records the PC extent of one lowered basic block. Entry/End
// are absolute PCs delimiting the half-open range [Entry, End).
type BlockInfo struct {
	// Name is the IR block name; variants of a function keep the original
	// block names, so block-level profiles aggregate across variants.
	Name string
	// Entry and End delimit the half-open PC range [Entry, End).
	Entry int
	End   int
}

// FuncInfo records the PC extent of one lowered function, used for PC-sample
// attribution and as EVT dispatch targets.
type FuncInfo struct {
	// Name is the IR function name. Variant code reuses the original name
	// so samples attribute to the logical function.
	Name string
	// Variant tags which code variant this body is: 0 for the original
	// static code, >0 for runtime-generated variants.
	Variant int
	// Entry and End delimit the half-open PC range [Entry, End).
	Entry int
	End   int
	// MaxReg sizes the register frame.
	MaxReg int
	// Blocks lists the function's basic-block PC extents in layout order
	// (contiguous, covering [Entry, End)). Empty for binaries serialized
	// before block metadata existed; sample attribution then degrades to
	// function granularity.
	Blocks []BlockInfo
}

// BlockAt returns the index in Blocks of the block containing pc, or -1
// when pc is outside the function or block metadata is absent.
func (f FuncInfo) BlockAt(pc int) int {
	i := sort.Search(len(f.Blocks), func(i int) bool { return f.Blocks[i].Entry > pc })
	if i == 0 {
		return -1
	}
	if b := f.Blocks[i-1]; pc < b.End {
		return i - 1
	}
	return -1
}

// GlobalInfo records the placement of one data region.
type GlobalInfo struct {
	Name string
	Base uint64
	Size uint64
}

// EVTEntry is one Edge Virtualization Table slot: a virtualized callee and
// the PC its calls currently dispatch to. The paper stores (source, target)
// address pairs; a slot per callee is equivalent because every virtualized
// call to the same callee shares a target.
type EVTEntry struct {
	// Callee is the IR function name this slot dispatches for.
	Callee string
	// Target is the current dispatch PC (initially the static entry).
	Target int
}

// Program is a lowered module: the simulated "text section" plus the
// metadata codegen produces.
type Program struct {
	Name string
	Code []Inst
	// Funcs is ordered by Entry PC; Funcs[0] need not be the entry function.
	Funcs []FuncInfo
	// EntryPC is the PC of the module entry function.
	EntryPC int
	Globals []GlobalInfo
	// EVT is the initial Edge Virtualization Table image.
	EVT []EVTEntry
	// NumSites is the number of static memory sites (loads, stores, and
	// prefetches each get a site).
	NumSites int
	// NumLoads mirrors the IR module's static load count.
	NumLoads int
	// AddrSpace is one past the highest global address; per-core address
	// offsets must exceed it.
	AddrSpace uint64
}

// FuncByName returns the first (original) FuncInfo with the given name.
func (p *Program) FuncByName(name string) (FuncInfo, bool) {
	for _, f := range p.Funcs {
		if f.Name == name && f.Variant == 0 {
			return f, true
		}
	}
	return FuncInfo{}, false
}

// FuncAt returns the function containing pc. Linear scan is fine for the
// program sizes the simulation uses; the machine caches lookups.
func (p *Program) FuncAt(pc int) (FuncInfo, bool) {
	for _, f := range p.Funcs {
		if pc >= f.Entry && pc < f.End {
			return f, true
		}
	}
	return FuncInfo{}, false
}

// CountVirtualizedCalls reports how many static call sites go through the
// EVT versus directly.
func (p *Program) CountVirtualizedCalls() (virtualized, direct int) {
	for _, in := range p.Code {
		switch in.Op {
		case OpCallEVT:
			virtualized++
		case OpCall:
			direct++
		}
	}
	return virtualized, direct
}
