// Package ir defines the intermediate representation embedded into protean
// binaries and consumed by the protean runtime compiler.
//
// The IR plays the role LLVM bitcode plays in the paper: a structured,
// semantically rich program form that the runtime can analyze (loop nesting,
// load sites, call structure) and transform (non-temporal hint insertion)
// without disassembling machine code. It is a register-based, CFG-structured
// IR: a Module holds Globals (data regions) and Functions; a Function holds
// Blocks; a Block holds straight-line Instrs and one Terminator.
//
// Every memory instruction carries an Access descriptor instead of raw
// address arithmetic. The descriptor states which Global the instruction
// touches and with what pattern (streaming, striding, pointer-chasing,
// uniform random, hot-set). This is the simulation substitute for the
// pointer arithmetic a real program would perform: it preserves exactly the
// locality information the cache hierarchy reacts to, which is the property
// the paper's transformations manipulate.
package ir

import "fmt"

// Reg names a virtual register local to a function. Registers hold signed
// 64-bit integers. Register 0 is valid and carries no special meaning.
type Reg int

// Operand is either a register or an immediate constant.
type Operand struct {
	// IsReg selects between Reg (true) and Imm (false).
	IsReg bool
	Reg   Reg
	Imm   int64
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{IsReg: true, Reg: r} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Imm: v} }

func (o Operand) String() string {
	if o.IsReg {
		return fmt.Sprintf("r%d", o.Reg)
	}
	return fmt.Sprintf("%d", o.Imm)
}

// BinKind enumerates binary ALU operations.
type BinKind int

// Binary ALU operations.
const (
	Add BinKind = iota
	Sub
	Mul
	Div
	And
	Or
	Xor
	Shl
	Shr
)

var binNames = [...]string{"add", "sub", "mul", "div", "and", "or", "xor", "shl", "shr"}

func (k BinKind) String() string {
	if int(k) < len(binNames) {
		return binNames[k]
	}
	return fmt.Sprintf("bin(%d)", int(k))
}

// CmpKind enumerates comparison predicates for conditional branches.
type CmpKind int

// Comparison predicates.
const (
	Eq CmpKind = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (k CmpKind) String() string {
	if int(k) < len(cmpNames) {
		return cmpNames[k]
	}
	return fmt.Sprintf("cmp(%d)", int(k))
}

// Pattern describes how a memory instruction walks its Global across dynamic
// executions. The interpreter in internal/machine turns a Pattern into a
// concrete address stream.
type Pattern int

// Address stream patterns.
const (
	// Seq streams sequentially through the region with the given Stride,
	// wrapping at the region end. High spatial locality, no temporal reuse
	// beyond the line: the classic non-temporal candidate.
	Seq Pattern = iota
	// Rand draws addresses uniformly from the region. Temporal locality is
	// proportional to how much of the region fits in cache.
	Rand
	// Chase emulates pointer chasing: the next address is a pseudo-random
	// function of the previous one, serializing accesses within the region.
	Chase
	// Hot draws most accesses from a small hot subset of the region and the
	// rest uniformly; good temporal locality on the hot set.
	Hot
	// Pin reads the same fixed address (the region base) on every dynamic
	// execution — the address-stream form of a loop-invariant address
	// operand, e.g. a scalar flag or descriptor re-read each iteration.
	// Perfect temporal locality: the line is hot after the first touch, so
	// prefetching it is useless and a non-temporal hint is actively harmful.
	Pin
)

var patNames = [...]string{"seq", "rand", "chase", "hot", "pin"}

func (p Pattern) String() string {
	if int(p) < len(patNames) {
		return patNames[p]
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Access describes the address stream of one static memory instruction.
type Access struct {
	// Global names the data region the instruction touches.
	Global string
	// Pattern selects the address stream shape.
	Pattern Pattern
	// Stride is the per-execution address increment for Seq (bytes).
	// Ignored for other patterns; 0 defaults to 8.
	Stride int64
	// HotBytes is the hot subset size for Hot (bytes). 0 defaults to 4096.
	HotBytes int64
}

// Invariant reports whether the access stream touches a single fixed
// address, i.e. the address operand is invariant across dynamic executions.
func (a Access) Invariant() bool { return a.Pattern == Pin }

func (a Access) String() string {
	s := fmt.Sprintf("%s[%s", a.Global, a.Pattern)
	if a.Stride != 0 {
		s += fmt.Sprintf(" stride=%d", a.Stride)
	}
	if a.HotBytes != 0 {
		s += fmt.Sprintf(" hot=%d", a.HotBytes)
	}
	return s + "]"
}

// Instr is a non-terminator instruction. Concrete types: *BinOp, *Const,
// *Load, *Store, *Prefetch, *Call.
type Instr interface {
	fmt.Stringer
	instr()
}

// BinOp computes Dst = X <op> Y.
type BinOp struct {
	Dst Reg
	Op  BinKind
	X   Operand
	Y   Operand
}

// Const sets Dst = Value.
type Const struct {
	Dst   Reg
	Value int64
}

// Load reads memory described by Acc into Dst.
//
// ID is the module-unique static load site identifier, assigned by
// Module.Finalize. PC3D's variant bit vectors index loads by ID. NT marks
// the load as carrying a non-temporal hint; pcc emits no NT loads — the
// runtime compiler toggles NT when materializing variants.
//
// MemID is the module-unique memory-site identifier shared by loads,
// stores and prefetches, assigned by Finalize. MemIDs are 1-based; 0 means
// "not yet assigned". The machine keys address-generator cursor state by
// MemID, so a runtime-generated variant resumes each access stream exactly
// where the original code left off — the position a real program would
// carry in registers and memory across a code-variant switch. Finalize
// preserves already-assigned MemIDs and gives fresh instructions new IDs
// past the existing maximum, so MemIDs are stable under Clone, attribute
// transforms (hint toggling), and instruction insertion (runtime-inserted
// prefetches).
type Load struct {
	Dst   Reg
	Acc   Access
	ID    int
	MemID int
	NT    bool
}

// Store writes Val to memory described by Acc. MemID: see Load.
type Store struct {
	Val   Operand
	Acc   Access
	MemID int
}

// Prefetch issues a software prefetch for the stream described by Acc.
// NT marks it non-temporal (the prefetchnta analog). MemID: see Load.
//
// Lead, when non-zero, makes this a lead prefetch: it warms the address
// Lead bytes ahead of the site's current stream position without advancing
// the stream. Runtime-inserted software prefetching (the pcsp policy) sets
// MemID to the target load's MemID so prefetch and load share one cursor.
type Prefetch struct {
	Acc   Access
	NT    bool
	MemID int
	Lead  int64
}

// Call transfers control to Callee and returns. Calls carry no arguments;
// workload programs communicate through Globals, which is sufficient for
// the timing and locality behaviour the simulation models.
type Call struct {
	Callee string
}

func (*BinOp) instr()    {}
func (*Const) instr()    {}
func (*Load) instr()     {}
func (*Store) instr()    {}
func (*Prefetch) instr() {}
func (*Call) instr()     {}

func (i *BinOp) String() string { return fmt.Sprintf("r%d = %s %s, %s", i.Dst, i.Op, i.X, i.Y) }
func (i *Const) String() string { return fmt.Sprintf("r%d = const %d", i.Dst, i.Value) }
func (i *Load) String() string {
	nt := ""
	if i.NT {
		nt = " !nt"
	}
	return fmt.Sprintf("r%d = load #%d %s%s", i.Dst, i.ID, i.Acc, nt)
}
func (i *Store) String() string { return fmt.Sprintf("store %s, %s", i.Val, i.Acc) }
func (i *Prefetch) String() string {
	nt := ""
	if i.NT {
		nt = " !nt"
	}
	return fmt.Sprintf("prefetch %s%s", i.Acc, nt)
}
func (i *Call) String() string { return fmt.Sprintf("call @%s", i.Callee) }

// Terminator ends a block. Concrete types: *Jump, *Branch, *Return.
type Terminator interface {
	fmt.Stringer
	term()
	// Successors returns the blocks control may flow to.
	Successors() []*Block
}

// Jump unconditionally transfers to Target.
type Jump struct {
	Target *Block
}

// Branch compares X <cmp> Y and transfers to True or False.
type Branch struct {
	X     Reg
	Cmp   CmpKind
	Y     Operand
	True  *Block
	False *Block
}

// Return exits the function.
type Return struct{}

func (*Jump) term()   {}
func (*Branch) term() {}
func (*Return) term() {}

// Successors returns the single jump target.
func (t *Jump) Successors() []*Block { return []*Block{t.Target} }

// Successors returns the taken and fall-through targets.
func (t *Branch) Successors() []*Block { return []*Block{t.True, t.False} }

// Successors returns nil: return leaves the function.
func (t *Return) Successors() []*Block { return nil }

func (t *Jump) String() string { return fmt.Sprintf("jump %%%s", t.Target.Name) }
func (t *Branch) String() string {
	return fmt.Sprintf("br r%d %s %s, %%%s, %%%s", t.X, t.Cmp, t.Y, t.True.Name, t.False.Name)
}
func (t *Return) String() string { return "ret" }

// Block is a basic block: straight-line Instrs followed by one Terminator.
type Block struct {
	Name   string
	Instrs []Instr
	Term   Terminator

	// Index is the block's position within its function, assigned by
	// Module.Finalize. Analyses use it for dense indexing.
	Index int
}

// Function is a named procedure. Blocks[0] is the entry block.
type Function struct {
	Name   string
	Blocks []*Block

	// MaxReg is one past the highest register mentioned in the function,
	// assigned by Module.Finalize. The interpreter sizes register files
	// from it.
	MaxReg int
}

// Global is a named data region of Size bytes.
type Global struct {
	Name string
	Size int64
}

// Module is a whole program: globals, functions, and an entry function name.
type Module struct {
	Name    string
	EntryFn string
	Globals []*Global
	Funcs   []*Function

	// NumLoads is the number of static load sites, assigned by Finalize.
	// Load IDs are dense in [0, NumLoads).
	NumLoads int
	// NumMemSites counts all static memory sites (loads, stores,
	// prefetches); MemIDs are dense in [1, NumMemSites].
	NumMemSites int
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Finalize assigns block indices, dense load-site IDs and memory-site IDs
// (in a deterministic function-then-block-then-instruction order), and
// per-function MaxReg, then verifies the module. It must be called after
// construction or mutation and before codegen, serialization, or analysis.
//
// Memory-site IDs already assigned by a previous Finalize are preserved;
// only unassigned instructions (MemID 0, e.g. prefetches inserted by a
// runtime transform) receive fresh IDs past the existing maximum. Load IDs
// are always reassigned densely by position — loads are never inserted or
// removed by supported transforms, so their order (and therefore their
// IDs) is stable.
func (m *Module) Finalize() error {
	id := 0
	memID := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in := in.(type) {
				case *Load:
					if in.MemID > memID {
						memID = in.MemID
					}
				case *Store:
					if in.MemID > memID {
						memID = in.MemID
					}
				case *Prefetch:
					if in.MemID > memID {
						memID = in.MemID
					}
				}
			}
		}
	}
	for _, f := range m.Funcs {
		maxReg := 0
		note := func(r Reg) {
			if int(r)+1 > maxReg {
				maxReg = int(r) + 1
			}
		}
		noteOp := func(o Operand) {
			if o.IsReg {
				note(o.Reg)
			}
		}
		for bi, b := range f.Blocks {
			b.Index = bi
			for _, in := range b.Instrs {
				switch in := in.(type) {
				case *BinOp:
					note(in.Dst)
					noteOp(in.X)
					noteOp(in.Y)
				case *Const:
					note(in.Dst)
				case *Load:
					note(in.Dst)
					in.ID = id
					id++
					if in.MemID == 0 {
						memID++
						in.MemID = memID
					}
				case *Store:
					noteOp(in.Val)
					if in.MemID == 0 {
						memID++
						in.MemID = memID
					}
				case *Prefetch:
					if in.MemID == 0 {
						memID++
						in.MemID = memID
					}
				}
			}
			if br, ok := b.Term.(*Branch); ok {
				note(br.X)
				noteOp(br.Y)
			}
		}
		f.MaxReg = maxReg
	}
	m.NumLoads = id
	m.NumMemSites = memID
	return m.Verify()
}

// Loads returns all static load sites in ID order. Finalize must have run.
func (m *Module) Loads() []*Load {
	out := make([]*Load, m.NumLoads)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if ld, ok := in.(*Load); ok {
					out[ld.ID] = ld
				}
			}
		}
	}
	return out
}

// LoadSite pairs a static load with its enclosing function and block.
type LoadSite struct {
	Load  *Load
	Func  *Function
	Block *Block
}

// LoadSites returns every load site with location context, in ID order.
func (m *Module) LoadSites() []LoadSite {
	out := make([]LoadSite, m.NumLoads)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if ld, ok := in.(*Load); ok {
					out[ld.ID] = LoadSite{Load: ld, Func: f, Block: b}
				}
			}
		}
	}
	return out
}
