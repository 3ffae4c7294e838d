package ir

import "fmt"

// ModuleBuilder incrementally constructs a Module. The workload catalog uses
// it to express synthetic applications compactly.
type ModuleBuilder struct {
	m *Module
}

// NewModuleBuilder starts a module with the given name.
func NewModuleBuilder(name string) *ModuleBuilder {
	return &ModuleBuilder{m: &Module{Name: name}}
}

// Global declares a data region of size bytes.
func (mb *ModuleBuilder) Global(name string, size int64) *ModuleBuilder {
	mb.m.Globals = append(mb.m.Globals, &Global{Name: name, Size: size})
	return mb
}

// Function starts a new function and returns its builder. The first block
// ("entry") is created and selected.
func (mb *ModuleBuilder) Function(name string) *FunctionBuilder {
	f := &Function{Name: name}
	mb.m.Funcs = append(mb.m.Funcs, f)
	fb := &FunctionBuilder{mb: mb, f: f}
	fb.cur = fb.Block("entry")
	return fb
}

// SetEntry selects the module entry function.
func (mb *ModuleBuilder) SetEntry(name string) *ModuleBuilder {
	mb.m.EntryFn = name
	return mb
}

// Build finalizes and verifies the module.
func (mb *ModuleBuilder) Build() (*Module, error) {
	if err := mb.m.Finalize(); err != nil {
		return nil, err
	}
	return mb.m, nil
}

// MustBuild is Build that panics on error; for use in tests and the static
// workload catalog where malformed programs are programming errors.
func (mb *ModuleBuilder) MustBuild() *Module {
	m, err := mb.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// FunctionBuilder appends instructions to the current block of one function.
type FunctionBuilder struct {
	mb      *ModuleBuilder
	f       *Function
	cur     *Block
	nextReg Reg
	nameSeq int
}

// NewReg allocates a fresh virtual register.
func (fb *FunctionBuilder) NewReg() Reg {
	r := fb.nextReg
	fb.nextReg++
	return r
}

// Block creates a new block without selecting it. An empty name is replaced
// by a generated one.
func (fb *FunctionBuilder) Block(name string) *Block {
	if name == "" {
		name = fmt.Sprintf("b%d", fb.nameSeq)
		fb.nameSeq++
	}
	b := &Block{Name: name}
	fb.f.Blocks = append(fb.f.Blocks, b)
	return b
}

// SetBlock selects the block new instructions append to.
func (fb *FunctionBuilder) SetBlock(b *Block) { fb.cur = b }

// Const emits r = const v and returns r.
func (fb *FunctionBuilder) Const(v int64) Reg {
	r := fb.NewReg()
	fb.cur.Instrs = append(fb.cur.Instrs, &Const{Dst: r, Value: v})
	return r
}

// Bin emits r = x <op> y and returns r.
func (fb *FunctionBuilder) Bin(op BinKind, x, y Operand) Reg {
	r := fb.NewReg()
	fb.cur.Instrs = append(fb.cur.Instrs, &BinOp{Dst: r, Op: op, X: x, Y: y})
	return r
}

// Load emits r = load acc and returns r.
func (fb *FunctionBuilder) Load(acc Access) Reg {
	r := fb.NewReg()
	fb.cur.Instrs = append(fb.cur.Instrs, &Load{Dst: r, Acc: acc})
	return r
}

// Store emits store val, acc.
func (fb *FunctionBuilder) Store(val Operand, acc Access) {
	fb.cur.Instrs = append(fb.cur.Instrs, &Store{Val: val, Acc: acc})
}

// Prefetch emits a prefetch for acc.
func (fb *FunctionBuilder) Prefetch(acc Access, nt bool) {
	fb.cur.Instrs = append(fb.cur.Instrs, &Prefetch{Acc: acc, NT: nt})
}

// Call emits call @callee.
func (fb *FunctionBuilder) Call(callee string) {
	fb.cur.Instrs = append(fb.cur.Instrs, &Call{Callee: callee})
}

// Work emits n dependent ALU instructions (compute padding that consumes
// issue slots without touching memory).
func (fb *FunctionBuilder) Work(n int) {
	if n <= 0 {
		return
	}
	r := fb.Const(1)
	for i := 1; i < n; i++ {
		r = fb.Bin(Add, R(r), Imm(int64(i)))
	}
}

// Jump terminates the current block with an unconditional jump.
func (fb *FunctionBuilder) Jump(target *Block) {
	fb.cur.Term = &Jump{Target: target}
}

// Branch terminates the current block with a conditional branch.
func (fb *FunctionBuilder) Branch(x Reg, cmp CmpKind, y Operand, t, f *Block) {
	fb.cur.Term = &Branch{X: x, Cmp: cmp, Y: y, True: t, False: f}
}

// Return terminates the current block with a return.
func (fb *FunctionBuilder) Return() {
	fb.cur.Term = &Return{}
}

// Loop builds a counted loop executing body trip times. On return the
// builder is positioned in the loop exit block. The body callback may itself
// build nested loops. The generated shape is:
//
//	pre:    i = 0; jump header
//	header: br i < trip ? body : exit
//	body:   <body()>; i = i + 1; jump header
//	exit:
func (fb *FunctionBuilder) Loop(trip int64, body func()) {
	i := fb.Const(0)
	header := fb.Block("")
	bodyBlk := fb.Block("")
	exit := fb.Block("")
	fb.Jump(header)

	fb.SetBlock(header)
	fb.Branch(i, Lt, Imm(trip), bodyBlk, exit)

	fb.SetBlock(bodyBlk)
	body()
	// The body may have moved the current block; the increment goes at the
	// end of whatever block is current when the body finishes.
	fb.cur.Instrs = append(fb.cur.Instrs, &BinOp{Dst: i, Op: Add, X: R(i), Y: Imm(1)})
	fb.Jump(header)

	fb.SetBlock(exit)
}
