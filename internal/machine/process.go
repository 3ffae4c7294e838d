package machine

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/progbin"
	"repro/internal/telemetry"
)

// Instruction issue costs in cycles. Loads and stores add memory time on
// top. The EVT-indirect call is one cycle dearer than a direct call — the
// "indirect branches are generally slightly slower" premise behind the
// paper's choice to virtualize selectively.
const (
	costALU      = 1
	costConst    = 1
	costBr       = 1
	costJmp      = 1
	costCall     = 2
	costCallEVT  = 3
	costRet      = 2
	costPrefetch = 1
	costLoadBase = 1
	costStore    = 1
)

// DBTConfig overlays a dynamic-binary-translation cost model on a process,
// standing in for running the program under DynamoRIO (Figure 4's
// baseline). Translation-based systems keep all execution inside a code
// cache: every control transfer pays a dispatch cost (heavier for indirect
// transfers, which need a hash lookup), and the first visit to a target
// pays a one-time translation cost.
type DBTConfig struct {
	DirectTransferCycles   int
	IndirectTransferCycles int
	TranslateCyclesPerSite int
}

// ProcessConfig configures one attached process, following the repo-wide
// Config-struct convention (core/pc3d/supervise migrated in PR 3).
type ProcessConfig struct {
	// Restart re-enters the program's entry function when it returns,
	// modelling a batch job immediately rescheduled (throughput workloads).
	Restart bool
	// Gated turns the process into a request-driven server: each entry-
	// function completion consumes one unit of work budget, and the process
	// idles when the budget is empty. Load generators grant budget via
	// GrantWork; a latency-sensitive service at 30% load gets 30% of its
	// peak request rate. Gated implies restart-on-completion while budget
	// remains.
	Gated bool
	// DBT, when non-nil, applies the binary-translation overhead model.
	DBT *DBTConfig
	// TraceDepth, when positive, keeps a ring buffer of the last N executed
	// instructions (cycle, PC) for post-mortem inspection. Tracing slows
	// the interpreter; leave zero in experiments.
	TraceDepth int
	// Label overrides the reported process name (defaults to module name).
	Label string
}

// TraceEntry is one executed instruction in a process's trace ring.
type TraceEntry struct {
	Cycle uint64
	PC    int
}

// Counters are the per-process hardware counters the runtime samples.
type Counters struct {
	// Cycles is the process's local clock: everything below plus run time.
	Cycles uint64
	// NapCycles were spent napping under the duty-cycle controller.
	NapCycles uint64
	// SleepCycles were spent in forced sleeps (flux probes).
	SleepCycles uint64
	// StolenCycles were consumed by a same-core runtime compiler.
	StolenCycles uint64
	// IdleCycles were spent waiting for work (gated server with an empty
	// request budget).
	IdleCycles uint64
	// DBTCycles were consumed by the binary-translation overlay.
	DBTCycles uint64

	Insts      uint64
	Branches   uint64
	Loads      uint64
	Stores     uint64
	Prefetches uint64
	// Completions counts entry-function returns (restart events).
	Completions uint64
}

// Sub returns the delta c - prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Cycles:       c.Cycles - prev.Cycles,
		NapCycles:    c.NapCycles - prev.NapCycles,
		SleepCycles:  c.SleepCycles - prev.SleepCycles,
		StolenCycles: c.StolenCycles - prev.StolenCycles,
		IdleCycles:   c.IdleCycles - prev.IdleCycles,
		DBTCycles:    c.DBTCycles - prev.DBTCycles,
		Insts:        c.Insts - prev.Insts,
		Branches:     c.Branches - prev.Branches,
		Loads:        c.Loads - prev.Loads,
		Stores:       c.Stores - prev.Stores,
		Prefetches:   c.Prefetches - prev.Prefetches,
		Completions:  c.Completions - prev.Completions,
	}
}

type frame struct {
	retPC int
	regs  []int64
}

type siteState struct {
	cursor uint64
}

// Process is one program executing on one core.
type Process struct {
	m    *Machine
	core int
	bin  *progbin.Binary
	opts ProcessConfig
	eng  Engine

	code  []isa.Inst
	funcs []isa.FuncInfo // sorted by Entry; includes installed variants
	evt   *progbin.LiveEVT

	// base offsets this process's data addresses so co-runners have
	// disjoint working sets that still contend for shared cache capacity.
	base uint64

	pc      int
	frames  []frame
	regs    []int64
	regPool [][]int64
	maxReg  int
	sites   []siteState
	rng     uint64

	halted bool
	ctr    Counters

	trace    []TraceEntry
	tracePos int
	traceLen int

	napIntensity float64
	sleepUntil   uint64
	stealPending uint64
	workBudget   uint64

	dbtSeen []bool
}

func newProcess(m *Machine, core int, bin *progbin.Binary, opts ProcessConfig) (*Process, error) {
	// The process runs the binary's text in place. Capping the slice at
	// its length makes InstallVariant's first append copy it, so a variant
	// never lands in a text other processes of the same binary share.
	text := bin.Program.Code
	p := &Process{
		m:     m,
		core:  core,
		bin:   bin,
		opts:  opts,
		code:  text[:len(text):len(text)],
		funcs: append([]isa.FuncInfo(nil), bin.Program.Funcs...),
		evt:   progbin.NewLiveEVT(bin.Program.EVT),
		base:  uint64(core+1) << 40,
		sites: make([]siteState, bin.Program.NumSites),
		rng:   uint64(m.cfg.Seed)*2654435769 + uint64(core)*0x9e3779b97f4a7c15 + 1,
	}
	sort.Slice(p.funcs, func(i, j int) bool { return p.funcs[i].Entry < p.funcs[j].Entry })
	for _, f := range p.funcs {
		if f.MaxReg > p.maxReg {
			p.maxReg = f.MaxReg
		}
	}
	if opts.DBT != nil {
		p.dbtSeen = make([]bool, len(p.code))
	}
	if opts.TraceDepth > 0 {
		p.trace = make([]TraceEntry, opts.TraceDepth)
	}
	p.ctr.Cycles = m.now
	p.reset()
	eng, err := newEngine(m.cfg.Engine, p)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	return p, nil
}

func (p *Process) reset() {
	p.pc = p.bin.Program.EntryPC
	p.frames = p.frames[:0]
	p.recycle(p.regs)
	p.regs = p.newRegs()
}

// recycle returns a register file to the pool for the next frame. Only a
// file of the current maximum size goes back: one sized before a variant
// raised maxReg could be handed to a frame that needs the wider file.
func (p *Process) recycle(r []int64) {
	if len(r) == p.maxReg {
		p.regPool = append(p.regPool, r)
	}
}

func (p *Process) newRegs() []int64 {
	if n := len(p.regPool); n > 0 {
		r := p.regPool[n-1]
		p.regPool = p.regPool[:n-1]
		for i := range r {
			r[i] = 0
		}
		return r
	}
	return make([]int64, p.maxReg)
}

// Name returns the process label.
func (p *Process) Name() string {
	if p.opts.Label != "" {
		return p.opts.Label
	}
	return p.bin.Program.Name
}

// Core returns the core index the process runs on.
func (p *Process) Core() int { return p.core }

// Binary returns the loaded binary.
func (p *Process) Binary() *progbin.Binary { return p.bin }

// EVT returns the process's live Edge Virtualization Table.
func (p *Process) EVT() *progbin.LiveEVT { return p.evt }

// Counters returns a snapshot of the process's counters.
func (p *Process) Counters() Counters { return p.ctr }

// Halted reports whether the program exited (only when Restart is false).
func (p *Process) Halted() bool { return p.halted }

// CurrentPC returns the program counter (the ptrace sampling hook).
func (p *Process) CurrentPC() int { return p.pc }

// FuncAt attributes a PC to a function (original or variant), using binary
// search over entry-sorted ranges.
func (p *Process) FuncAt(pc int) (isa.FuncInfo, bool) {
	i := sort.Search(len(p.funcs), func(i int) bool { return p.funcs[i].Entry > pc })
	if i == 0 {
		return isa.FuncInfo{}, false
	}
	f := p.funcs[i-1]
	if pc >= f.Entry && pc < f.End {
		return f, true
	}
	return isa.FuncInfo{}, false
}

// CurrentFunc returns the name of the function the PC is in, or "".
func (p *Process) CurrentFunc() string {
	if f, ok := p.FuncAt(p.pc); ok {
		return f.Name
	}
	return ""
}

// Sample attributes one sampled PC: the function (original or variant),
// the basic block inside it, and — when the PC is a load — the static IR
// load site. This is the ptrace-sampler analog of symbolizing a PC against
// the binary's line table.
type Sample struct {
	Func    string
	Variant int
	// Block is the IR block name, or "" for binaries without block tables.
	Block string
	// LoadID is the static load site when the sampled instruction is a
	// load, -1 otherwise.
	LoadID int
}

// SampleAt attributes pc to (function, block, load site); ok is false when
// pc is outside any function.
func (p *Process) SampleAt(pc int) (Sample, bool) {
	f, ok := p.FuncAt(pc)
	if !ok {
		return Sample{}, false
	}
	s := Sample{Func: f.Name, Variant: f.Variant, LoadID: -1}
	if bi := f.BlockAt(pc); bi >= 0 {
		s.Block = f.Blocks[bi].Name
	}
	if pc >= 0 && pc < len(p.code) && p.code[pc].Op == isa.OpLoad {
		s.LoadID = p.code[pc].LoadID
	}
	return s, true
}

// CurrentSample attributes the current PC (see SampleAt).
func (p *Process) CurrentSample() (Sample, bool) { return p.SampleAt(p.pc) }

// SetNapIntensity sets the napping duty cycle in [0,1]: the fraction of
// each nap window the process sleeps. This is the authoritative nap-state
// transition point — every policy funnels through it, so the telemetry
// trace records exactly one event per actual change.
func (p *Process) SetNapIntensity(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	if f != p.napIntensity && p.m.tel.TraceEnabled() {
		p.m.tel.Emit(telemetry.Event{
			At: p.m.now, Kind: telemetry.EvNap, Core: p.core,
			Value: f, Detail: telemetry.FormatFloat(p.napIntensity),
		})
	}
	p.napIntensity = f
}

// NapIntensity returns the current duty cycle.
func (p *Process) NapIntensity() float64 { return p.napIntensity }

// ForceSleep puts the process to sleep for n cycles starting now — the
// flux probe mechanism (Section IV-F).
func (p *Process) ForceSleep(n uint64) {
	if p.ctr.Cycles+n > p.sleepUntil {
		p.sleepUntil = p.ctr.Cycles + n
	}
}

// StealCycles consumes n upcoming cycles of the process's core for another
// activity (a same-core runtime compiler). The process makes no progress
// while stolen cycles drain.
func (p *Process) StealCycles(n uint64) { p.stealPending += n }

// GrantWork adds n requests to a gated server's budget. No-op semantics for
// ungated processes (the budget is simply never consumed).
func (p *Process) GrantWork(n uint64) { p.workBudget += n }

// WorkBudget returns the outstanding request budget of a gated server.
func (p *Process) WorkBudget() uint64 { return p.workBudget }

// CodeCursor returns the PC where the next installed variant will land.
func (p *Process) CodeCursor() int { return len(p.code) }

// InstallVariant appends a lowered variant fragment to the process's code
// cache and registers its function range. The fragment must have been
// lowered with basePC = CodeCursor(). Installing does not redirect
// execution; the EVT manager does that separately. Variant memory sites
// alias the original program's cursor state by stable MemID, so switching
// variants never rewinds an access stream.
func (p *Process) InstallVariant(vr *isa.VariantResult) error {
	if vr.Info.Entry != len(p.code) {
		return fmt.Errorf("machine: variant lowered for basePC %d but code cursor is %d", vr.Info.Entry, len(p.code))
	}
	p.code = append(p.code, vr.Code...)
	p.funcs = append(p.funcs, vr.Info) // still entry-sorted: code grows upward
	if vr.NumSites > len(p.sites) {
		p.sites = append(p.sites, make([]siteState, vr.NumSites-len(p.sites))...)
	}
	if vr.Info.MaxReg > p.maxReg {
		p.maxReg = vr.Info.MaxReg
		// Live register files may be smaller than the new maximum; they
		// belong to functions with smaller MaxReg, so they stay valid, and
		// recycle drops each one when its frame ends. New frames allocate
		// at the new size. Drop the pool of small files.
		p.regPool = nil
	}
	if p.dbtSeen != nil {
		grown := make([]bool, len(p.code))
		copy(grown, p.dbtSeen)
		p.dbtSeen = grown
	}
	// The engine may hold decoded state derived from the old image; let it
	// extend or invalidate (the old tail instruction's decoding can change
	// now that it has a successor).
	p.eng.CodeInstalled(len(p.code) - len(vr.Code))
	return nil
}

// schedule settles whatever keeps the process from executing at its clock
// and reports whether it may execute now. In priority order: a halted
// process idles to the boundary; a forced sleep (the flux probe stops even
// napping processes fully), stolen cycles (a same-core runtime compiler)
// and a gated server with no pending requests each consume their span; a
// napping process sleeps the first napIntensity fraction of each nap
// window. Each such step advances the clock and returns idle. Otherwise
// limit is where the executing span ends: the quantum boundary until, or,
// while napping, the current window's edge, past which the next window's
// nap begins. Inside one span only a halt or a completion (which may drain
// a gated budget) changes what schedule decides.
func (p *Process) schedule(until uint64) (limit uint64, idle bool) {
	now := p.ctr.Cycles
	switch {
	case p.halted:
		p.ctr.Cycles = until
	case p.sleepUntil > now:
		end := min(p.sleepUntil, until)
		p.ctr.SleepCycles += end - now
		p.ctr.Cycles = end
	case p.stealPending > 0:
		take := min(p.stealPending, until-now)
		p.stealPending -= take
		p.ctr.StolenCycles += take
		p.ctr.Cycles += take
	case p.opts.Gated && p.workBudget == 0:
		p.ctr.IdleCycles += until - now
		p.ctr.Cycles = until
	case p.napIntensity > 0:
		window := p.m.napWindow
		wStart := now / window * window
		napEnd := wStart + uint64(p.napIntensity*float64(window))
		if now >= napEnd {
			return min(until, wStart+window), false
		}
		end := min(napEnd, until)
		p.ctr.NapCycles += end - now
		p.ctr.Cycles = end
	default:
		return until, false
	}
	return 0, true
}

// step executes one instruction. It returns false after a halt or a
// completion, the only outcomes that change what schedule decides.
func (p *Process) step() bool {
	hier := p.m.hier
	in := &p.code[p.pc]
	if p.trace != nil {
		p.trace[p.tracePos] = TraceEntry{Cycle: p.ctr.Cycles, PC: p.pc}
		p.tracePos++
		if p.tracePos == len(p.trace) {
			p.tracePos = 0
		}
		if p.traceLen < len(p.trace) {
			p.traceLen++
		}
	}
	p.ctr.Insts++
	switch in.Op {
	case isa.OpALU:
		x := p.regs[in.X]
		var y int64
		if in.YIsReg {
			y = p.regs[in.YReg]
		} else {
			y = in.YImm
		}
		p.regs[in.Dst] = alu(in.Bin, x, y)
		p.ctr.Cycles += costALU
		p.pc++
	case isa.OpConst:
		p.regs[in.Dst] = in.YImm
		p.ctr.Cycles += costConst
		p.pc++
	case isa.OpLoad:
		addr := p.address(&in.Gen)
		lat := hier.Load(p.core, addr, in.NT)
		stall := uint64(lat) / loadMLP
		p.ctr.Cycles += costLoadBase + stall
		p.ctr.Loads++
		p.regs[in.Dst] = int64(addr)
		p.pc++
	case isa.OpStore:
		addr := p.address(&in.Gen)
		hier.Store(p.core, addr, in.NT)
		p.ctr.Cycles += costStore
		p.ctr.Stores++
		p.pc++
	case isa.OpPrefetch:
		switch {
		case in.Lead != 0:
			// Lead prefetch: warm the address Lead bytes ahead of the
			// shared stream cursor without advancing it, so the load that
			// reaches that position a few iterations later hits.
			addr := p.addressPeek(&in.Gen, uint64(in.Lead))
			hier.Prefetch(p.core, addr, in.NT)
		case in.NT && p.pairedWithNextLoad(in):
			// A hint prefetch paired with the following load (same site)
			// is issue-cost only: its sole architectural effect is tagging
			// the load's fill non-temporal, which the load itself carries.
		default:
			addr := p.address(&in.Gen)
			hier.Prefetch(p.core, addr, in.NT)
		}
		p.ctr.Cycles += costPrefetch
		p.ctr.Prefetches++
		p.pc++
	case isa.OpBr:
		x := p.regs[in.X]
		var y int64
		if in.YIsReg {
			y = p.regs[in.YReg]
		} else {
			y = in.YImm
		}
		p.ctr.Cycles += costBr
		p.ctr.Branches++
		if cmp(in.Cmp, x, y) {
			p.transfer(in.Target, false)
		} else {
			p.pc++
		}
	case isa.OpJmp:
		p.ctr.Cycles += costJmp
		p.ctr.Branches++
		p.transfer(in.Target, false)
	case isa.OpCall:
		p.ctr.Cycles += costCall
		p.ctr.Branches++
		p.pushFrame(p.pc + 1)
		p.transfer(in.Target, false)
	case isa.OpCallEVT:
		p.ctr.Cycles += costCallEVT
		p.ctr.Branches++
		p.pushFrame(p.pc + 1)
		p.transfer(p.evt.Target(in.EVTSlot), true)
	case isa.OpRet:
		p.ctr.Cycles += costRet
		p.ctr.Branches++
		return !p.ret()
	case isa.OpHalt:
		p.halted = true
		return false
	default:
		panic(fmt.Sprintf("machine: unknown opcode %d at pc %d", in.Op, p.pc))
	}
	return true
}

// ret returns from the current function to its caller. When the entry
// function returns it instead completes one unit of work: a gated server
// spends a request and re-enters, a restartable job re-enters, anything else
// halts (the PC stays on the return). It reports whether it completed.
func (p *Process) ret() (completed bool) {
	if len(p.frames) == 0 {
		p.ctr.Completions++
		switch {
		case p.opts.Gated:
			if p.workBudget > 0 {
				p.workBudget--
			}
			p.reset()
		case p.opts.Restart:
			p.reset()
		default:
			p.halted = true
		}
		return true
	}
	f := p.frames[len(p.frames)-1]
	p.frames = p.frames[:len(p.frames)-1]
	p.recycle(p.regs)
	p.regs = f.regs
	p.transfer(f.retPC, true)
	return false
}

// pairedWithNextLoad reports whether the prefetch at p.pc shares a site
// with the immediately following load (the codegen's NT-hint pairing).
func (p *Process) pairedWithNextLoad(in *isa.Inst) bool {
	if p.pc+1 >= len(p.code) {
		return false
	}
	next := &p.code[p.pc+1]
	return next.Op == isa.OpLoad && next.Gen.Site == in.Gen.Site
}

func (p *Process) pushFrame(retPC int) {
	p.frames = append(p.frames, frame{retPC: retPC, regs: p.regs})
	p.regs = p.newRegs()
}

// transfer moves the PC, applying the DBT overlay when present.
func (p *Process) transfer(target int, indirect bool) {
	if p.dbtSeen != nil {
		cfg := p.opts.DBT
		var extra uint64
		if indirect {
			extra += uint64(cfg.IndirectTransferCycles)
		} else {
			extra += uint64(cfg.DirectTransferCycles)
		}
		if target < len(p.dbtSeen) && !p.dbtSeen[target] {
			p.dbtSeen[target] = true
			extra += uint64(cfg.TranslateCyclesPerSite)
		}
		p.ctr.Cycles += extra
		p.ctr.DBTCycles += extra
	}
	p.pc = target
}

func alu(op ir.BinKind, x, y int64) int64 {
	switch op {
	case ir.Add:
		return x + y
	case ir.Sub:
		return x - y
	case ir.Mul:
		return x * y
	case ir.Div:
		if y == 0 {
			return 0
		}
		return x / y
	case ir.And:
		return x & y
	case ir.Or:
		return x | y
	case ir.Xor:
		return x ^ y
	case ir.Shl:
		return x << (uint64(y) & 63)
	case ir.Shr:
		return int64(uint64(x) >> (uint64(y) & 63))
	}
	return 0
}

func cmp(op ir.CmpKind, x, y int64) bool {
	switch op {
	case ir.Eq:
		return x == y
	case ir.Ne:
		return x != y
	case ir.Lt:
		return x < y
	case ir.Le:
		return x <= y
	case ir.Gt:
		return x > y
	case ir.Ge:
		return x >= y
	}
	return false
}

// Trace returns the traced instructions, oldest first. Empty unless the
// process was attached with a positive TraceDepth.
func (p *Process) Trace() []TraceEntry {
	if p.trace == nil || p.traceLen == 0 {
		return nil
	}
	out := make([]TraceEntry, 0, p.traceLen)
	start := p.tracePos - p.traceLen
	if start < 0 {
		start += len(p.trace)
	}
	for i := 0; i < p.traceLen; i++ {
		out = append(out, p.trace[(start+i)%len(p.trace)])
	}
	return out
}

// nextRand steps the process-local xorshift64 generator.
func (p *Process) nextRand() uint64 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	return x
}

// address generates the next address of a memory site.
func (p *Process) address(g *isa.AddrGen) uint64 {
	st := &p.sites[g.Site]
	var off uint64
	switch g.Pattern {
	case ir.Seq:
		off = st.cursor
		st.cursor += g.Stride
		if st.cursor >= g.Size {
			st.cursor = 0
		}
	case ir.Rand:
		off = (p.nextRand() % g.Size) &^ 7
	case ir.Chase:
		st.cursor = splitmix64(st.cursor+0x9e3779b97f4a7c15) % g.Size
		off = st.cursor &^ 7
	case ir.Hot:
		r := p.nextRand()
		if r%8 != 0 { // 7/8 of accesses stay in the hot set
			off = (r >> 8) % g.HotBytes &^ 7
		} else {
			off = (r >> 8) % g.Size &^ 7
		}
	case ir.Pin:
		// Loop-invariant address: every execution re-touches the region
		// base. No cursor state to advance.
		off = 0
	}
	return p.base + g.Base + off
}

// addressPeek returns the address lead bytes ahead of the site's stream
// position without mutating cursor state. Only sequential streams have a
// meaningful "ahead"; other patterns peek at cursor+lead too, which is
// harmless (the prefetch warms a plausible region address). The peek wraps
// modulo the region size, so any lead — even a negative one from a corrupt
// binary — costs one division.
func (p *Process) addressPeek(g *isa.AddrGen, lead uint64) uint64 {
	return p.base + g.Base + (p.sites[g.Site].cursor+lead)%g.Size
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
