package machine

import (
	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/isa"
)

// The superblock engine is the fast execution path behind the pluggable
// Engine interface. It exploits three structural facts about the simulated
// ISA:
//
//  1. Decode is static. Every isa.Inst is decoded exactly once into a
//     dense, pre-resolved sbOp (operand shape, specialization of prefetch
//     pairing, EVT slot), so the hot loop never re-inspects the wide Inst
//     encoding.
//
//  2. Straight-line runs are superblocks. For every PC the decoder
//     precomputes the aggregate shape of the run from that PC to its
//     terminating control transfer: instruction/branch/load/store counts,
//     summed issue cycles, and a worst-case cycle bound. Keying superblocks
//     by *every* PC (each PC starts the suffix of its run) means a quantum
//     boundary, a branch target, or a return can land mid-run and still
//     enter fused execution immediately — and PC sampling attributes
//     mid-superblock PCs with no extra machinery, because the process PC
//     is always a real instruction address at every observation point.
//     A run extends through at most one unconditional direct jump into the
//     target's run, so a counted loop's `body; jmp header; br` is one
//     fused run — never under a DBT overlay, whose transfer cost depends
//     on the translation history.
//
//  3. Memory addresses are register-independent. Address generators draw
//     from per-site cursor state and the process RNG, never from register
//     values, so a superblock's accesses can be generated in one pass and
//     replayed through the cache hierarchy in one batched walk
//     (cache.Hierarchy.Replay) instead of interleaving a virtual-dispatch
//     hierarchy call into every instruction step.
//
// Everything else is the oracle's own code. Process.schedule settles the
// non-executing states (a whole nap / sleep / idle / stolen span is one
// call) and bounds the executing span; Process.step runs single
// instructions and Process.ret every return. Bit-identity is preserved by
// construction: a superblock executes fused only when its precomputed
// worst-case cost fits the remaining budget to the span's limit (the
// quantum boundary or, while napping, the nap-window edge the oracle
// re-checks before every instruction). Otherwise the engine single-steps
// until the limit passes. A jump run keeps the proof as it is: outside
// DBT the jump costs a fixed costJmp and its successor is static, so the
// two segments' summed worst case still bounds every prefix.
//
// Invalidation rules:
//
//   - InstallVariant grows the code image; CodeInstalled re-decodes it.
//     (Appending can also change the decoding of the previous tail
//     instruction — a trailing NT prefetch gains a successor load — so the
//     re-decode covers the whole image, which is cheap at simulated-program
//     sizes.)
//   - EVT redirects need no invalidation by design: sbCallEVT dispatches
//     through the live table on every call, exactly like the oracle, so a
//     runtime retarget or a supervisor revert takes effect at the next
//     virtualized call even when it lands mid-loop.

// sbOp is one decoded instruction: a compact, pre-resolved form of
// isa.Inst. Sequential-stream loads carry their address-generator
// parameters inline (the wide isa.Inst is ~128 bytes, so reading Gen
// through the code image would cost the exec loop a host cache line per
// instruction; here the generator shares the op's own line). The record is
// 64 bytes — one host cache line per op.
type sbOp struct {
	kind   uint8
	bin    uint8 // ir.BinKind for ALU, ir.CmpKind for Br
	nt     bool
	yIsReg bool // Br only; ALU is specialized by kind
	dst    uint16
	x      uint16
	y      uint16
	imm    int64 // immediate operand, or prefetch lead bytes
	target int32 // branch/jump/call destination PC
	aux    int32 // EVT slot for sbCallEVT
	// Seq-load generator parameters (sbLoadSeq only).
	stride uint64
	size   uint64
	gbase  uint64
	site   uint32
	_      uint32
}

// Decoded op kinds.
const (
	sbConst uint8 = iota
	sbALUImm
	sbALUReg
	sbLoad
	sbLoadSeq // sequential-stream load: cursor advance inlined
	sbStore
	sbPrefetch       // address() + hierarchy touch
	sbPrefetchLead   // addressPeek(lead) + hierarchy touch
	sbPrefetchPaired // NT hint paired with the next load: issue cost only
	sbBr
	sbJmp
	sbCall
	sbCallEVT
	sbRet
	sbHalt
)

// sbRun is the precomputed superblock starting at one PC: the aggregate
// shape of the straight-line run from that PC through its terminating
// control transfer — or, for a jump run, on through the jump target's run.
// The record is 36 bytes; decode allocates one per instruction.
type sbRun struct {
	// term is the terminator's PC, or -1 when no fused run starts here
	// (the run falls off the end of the code image, or the op is unknown).
	// For a jump run it is the jump's PC; the run ends at the terminator
	// of the target's run.
	term int32
	// fixed is the summed issue cost of the whole run, terminator
	// included — everything except load stalls and DBT transfer overhead.
	fixed uint32
	// worst bounds the run's total cost: fixed plus every load missing to
	// memory plus the worst DBT transfer. A run executes fused only when
	// worst fits the remaining cycle budget.
	worst      uint32
	insts      uint32
	branches   uint32
	loads      uint32
	stores     uint32
	prefetches uint32
	// plain marks a run whose memory traffic is ordinary demand loads only
	// (no stores, no prefetches, nothing non-temporal): its batch replays
	// through the lean ReplayLoads walk instead of the general one.
	plain bool
	// jump marks a run whose terminator is a direct jump folded into the
	// target's run: the aggregates cover both segments.
	jump bool
}

// sbEngine executes a process by superblock. Per-process: it owns decoded
// state for exactly one code image.
type sbEngine struct {
	p      *Process
	oracle interpEngine
	ops    []sbOp
	runs   []sbRun
	accs   []cache.Access // reusable batch buffer (mixed-kind runs)
	addrs  []uint64       // reusable batch buffer (plain-load runs)
	// maxStall is the worst per-load stall (slowest hierarchy level / loadMLP).
	maxStall uint64
}

func newSuperblockEngine(p *Process) Engine {
	e := &sbEngine{p: p, oracle: interpEngine{p: p}}
	e.maxStall = uint64(p.m.hier.MaxLatency()) / loadMLP
	e.decode()
	return e
}

// CodeInstalled re-decodes the grown image. Superblocks are keyed by PC
// and code only ever grows upward, but the old tail instruction's decoding
// can change once it has a successor (prefetch/load pairing), so the
// re-decode covers everything rather than splicing.
func (e *sbEngine) CodeInstalled(int) { e.decode() }

// decode builds the dense op array and the per-PC run aggregates in one
// backward pass — a run's aggregate is its first op plus the aggregate at
// the next PC — then folds each jump run into its target's run.
func (e *sbEngine) decode() {
	p := e.p
	code := p.code
	n := len(code)
	e.ops = make([]sbOp, n)
	e.runs = make([]sbRun, n)
	var dbtWorst uint32
	if p.dbtSeen != nil {
		c := p.opts.DBT
		t := c.DirectTransferCycles
		if c.IndirectTransferCycles > t {
			t = c.IndirectTransferCycles
		}
		dbtWorst = uint32(t + c.TranslateCyclesPerSite)
	}
	for i := n - 1; i >= 0; i-- {
		in := &code[i]
		op := &e.ops[i]
		r := &e.runs[i]
		var cost, branch, loads, stores, prefetches, worstExtra uint32
		control := false
		switch in.Op {
		case isa.OpALU:
			op.dst, op.x = in.Dst, in.X
			op.bin = uint8(in.Bin)
			if in.YIsReg {
				op.kind, op.y = sbALUReg, in.YReg
			} else {
				op.kind, op.imm = sbALUImm, in.YImm
			}
			cost = costALU
		case isa.OpConst:
			op.kind, op.dst, op.imm = sbConst, in.Dst, in.YImm
			cost = costConst
		case isa.OpLoad:
			op.kind, op.dst, op.nt = sbLoad, in.Dst, in.NT
			if in.Gen.Pattern == ir.Seq {
				// The dominant pattern gets its cursor advance inlined in
				// the exec loop instead of a call into address(), reading
				// the generator parameters pre-copied into the op itself.
				op.kind = sbLoadSeq
				op.stride = in.Gen.Stride
				op.size = in.Gen.Size
				op.gbase = in.Gen.Base
				op.site = uint32(in.Gen.Site)
			}
			cost, loads = costLoadBase, 1
			worstExtra = uint32(e.maxStall)
		case isa.OpStore:
			op.kind, op.nt = sbStore, in.NT
			cost, stores = costStore, 1
		case isa.OpPrefetch:
			// Mirrors the oracle's case order: lead prefetches first, then
			// the NT hint paired with its following same-site load (issue
			// cost only — the load itself carries the NT fill).
			switch {
			case in.Lead != 0:
				op.kind, op.imm = sbPrefetchLead, in.Lead
			case in.NT && i+1 < n && code[i+1].Op == isa.OpLoad && code[i+1].Gen.Site == in.Gen.Site:
				op.kind = sbPrefetchPaired
			default:
				op.kind = sbPrefetch
			}
			op.nt = in.NT
			cost, prefetches = costPrefetch, 1
		case isa.OpBr:
			op.kind, op.x, op.bin, op.target = sbBr, in.X, uint8(in.Cmp), int32(in.Target)
			if in.YIsReg {
				op.yIsReg, op.y = true, in.YReg
			} else {
				op.imm = in.YImm
			}
			cost, branch, control = costBr, 1, true
		case isa.OpJmp:
			op.kind, op.target = sbJmp, int32(in.Target)
			cost, branch, control = costJmp, 1, true
		case isa.OpCall:
			op.kind, op.target = sbCall, int32(in.Target)
			cost, branch, control = costCall, 1, true
		case isa.OpCallEVT:
			op.kind, op.aux = sbCallEVT, int32(in.EVTSlot)
			cost, branch, control = costCallEVT, 1, true
		case isa.OpRet:
			op.kind = sbRet
			cost, branch, control = costRet, 1, true
		case isa.OpHalt:
			op.kind = sbHalt
			control = true // issue-free: the oracle charges no cycles
			// A zero-cost terminator would let a run end exactly on the
			// budget limit, executing the halt one step earlier than the
			// oracle's pre-instruction boundary check allows. Pad its
			// worst-case by one so every prefix stays strictly inside.
			worstExtra = 1
		default:
			// Unknown opcode: never fuse, so the step path reports it with
			// the oracle's panic.
			r.term = -1
			continue
		}
		if control {
			r.term = int32(i)
			r.fixed = cost
			r.worst = cost + worstExtra + dbtWorst
			r.insts = 1
			r.branches = branch
			r.plain = true // a bare terminator has no memory traffic
			continue
		}
		if i+1 >= n || e.runs[i+1].term < 0 {
			// The run falls off the end of the image; executing past it
			// would be the oracle's out-of-range panic. Never fuse.
			r.term = -1
			continue
		}
		next := &e.runs[i+1]
		r.term = next.term
		r.fixed = next.fixed + cost
		r.worst = next.worst + cost + worstExtra
		r.insts = next.insts + 1
		r.branches = next.branches + branch
		r.loads = next.loads + loads
		r.stores = next.stores + stores
		r.prefetches = next.prefetches + prefetches
		switch op.kind {
		case sbConst, sbALUImm, sbALUReg:
			r.plain = next.plain
		case sbLoad, sbLoadSeq:
			r.plain = next.plain && !op.nt
		default: // stores, prefetches: general replay
			r.plain = false
		}
	}
	if p.dbtSeen != nil {
		// A DBT transfer's cost depends on which targets were seen before,
		// so under the overlay every jump stays a run boundary.
		return
	}
	// A run ending in a direct jump continues into the target's run unless
	// that run ends in a jump too. A target run is therefore never folded
	// itself, so folding in place is order-independent and `L: jmp L`
	// cannot chain.
	for i := range e.runs {
		r := &e.runs[i]
		if r.term < 0 || e.ops[r.term].kind != sbJmp {
			continue
		}
		t := e.ops[r.term].target
		if uint(t) >= uint(n) {
			continue
		}
		next := &e.runs[t]
		if next.term < 0 || e.ops[next.term].kind == sbJmp {
			continue
		}
		r.fixed += next.fixed
		r.worst += next.worst
		r.insts += next.insts
		r.branches += next.branches
		r.loads += next.loads
		r.stores += next.stores
		r.prefetches += next.prefetches
		r.plain = r.plain && next.plain
		r.jump = true
	}
}

// RunUntil advances the process to the quantum boundary, one scheduling
// span at a time: schedule settles a non-executing span or bounds an
// executing one, and exec runs it.
func (e *sbEngine) RunUntil(until uint64) {
	p := e.p
	if p.trace != nil {
		// Per-instruction tracing observes every (cycle, PC) pair — the
		// exact thing fusion elides. Trace runs use the oracle loop.
		e.oracle.RunUntil(until)
		return
	}
	for p.ctr.Cycles < until {
		if limit, idle := p.schedule(until); !idle {
			e.exec(limit)
		}
	}
}

// exec runs one executing span: fused chains while a block's worst case
// fits before limit, oracle single steps across the boundary zone. It
// returns at limit, or early after a halt or a completion — inside one span
// the only events that change what schedule decides (agents run only
// between quanta, and limit already stops at the nap-window edge).
func (e *sbEngine) exec(limit uint64) {
	p := e.p
	for p.ctr.Cycles < limit {
		pc := p.pc
		if uint(pc) < uint(len(e.runs)) {
			if r := &e.runs[pc]; r.term >= 0 && p.ctr.Cycles+uint64(r.worst) <= limit {
				if !e.runChain(pc, r, limit) {
					return
				}
				continue
			}
		}
		if !p.step() {
			return
		}
	}
}

// runChain executes superblocks back to back while the worst-case budget
// holds, deferring plain-run cache replay across blocks: register effects
// and address generation settle block by block (addresses are register-
// independent, so no later op ever needs an earlier stall resolved), while
// the batched hierarchy walk for queued loads happens once per chain
// instead of once per block. The budget check charges every queued load at
// the worst per-load stall — the same bound decode summed into r.worst —
// so each fused block still provably finishes at or before the cycle the
// oracle's per-instruction boundary check allows, and the flushed total is
// the same sum the per-block replay would have produced. Only a completion
// or a halt can change the caller's scheduling state (halted flag, gated
// work budget) — runTerm reports those, and so does runChain's result — so
// transfers re-check nothing but the budget.
func (e *sbEngine) runChain(pc int, r *sbRun, limit uint64) (cont bool) {
	p := e.p
	hier := p.m.hier
	addrs := e.addrs[:0]
	var pending uint64 // worst-case stall bound for queued, unreplayed loads
	for {
		if r.plain {
			var term int
			addrs, term = e.plainBody(pc, r, addrs)
			pending += uint64(r.loads) * e.maxStall
			// A plain run carries only ordinary loads (stores, prefetches
			// and NT traffic all force the mixed path), so the remaining
			// counters settle straight from the aggregates; the deferred
			// load stall lands on Cycles at the flush below.
			p.ctr.Cycles += uint64(r.fixed)
			p.ctr.Insts += uint64(r.insts)
			p.ctr.Branches += uint64(r.branches)
			p.ctr.Loads += uint64(r.loads)
			cont = e.runTerm(term)
		} else {
			// Mixed runs interleave stores and prefetches with loads, so
			// ordering matters: flush the queued loads first, then let the
			// block replay its own traffic in program order.
			if len(addrs) > 0 {
				p.ctr.Cycles += hier.ReplayLoads(p.core, addrs, loadMLP)
				addrs = addrs[:0]
				pending = 0
			}
			cont = e.runBlock(pc, r)
		}
		if !cont {
			break
		}
		pc = p.pc
		if uint(pc) >= uint(len(e.runs)) {
			break
		}
		r = &e.runs[pc]
		if r.term < 0 || p.ctr.Cycles+pending+uint64(r.worst) > limit {
			break
		}
	}
	e.addrs = addrs[:0] // keep the grown buffer
	if len(addrs) > 0 {
		p.ctr.Cycles += hier.ReplayLoads(p.core, addrs, loadMLP)
	}
	return cont
}

// plainBody executes the straight-line body of plain-load run r at pc —
// both segments of a jump run — with register effects and address
// generation in one pass, each load's address appended to addrs for a
// batched replay the caller schedules. It returns the grown buffer and the
// PC of the terminator the run ends at.
func (e *sbEngine) plainBody(pc int, r *sbRun, addrs []uint64) ([]uint64, int) {
	p := e.p
	regs := p.regs
	sites := p.sites
	base := p.base
	term, jump := int(r.term), r.jump
	for {
		// Slice the decoded ops to exactly the segment: the compiler then
		// drops the per-op bounds checks.
		body := e.ops[pc:term:term]
		for j := range body {
			op := &body[j]
			switch op.kind {
			case sbALUImm:
				regs[op.dst] = alu(ir.BinKind(op.bin), regs[op.x], op.imm)
			case sbALUReg:
				regs[op.dst] = alu(ir.BinKind(op.bin), regs[op.x], regs[op.y])
			case sbConst:
				regs[op.dst] = op.imm
			case sbLoadSeq:
				// address()'s ir.Seq case, inlined: advance the site
				// cursor by the stride, wrapping at the region size.
				st := &sites[op.site]
				off := st.cursor
				st.cursor += op.stride
				if st.cursor >= op.size {
					st.cursor = 0
				}
				addr := base + op.gbase + off
				addrs = append(addrs, addr)
				regs[op.dst] = int64(addr)
			case sbLoad:
				addr := p.address(&p.code[pc+j].Gen)
				addrs = append(addrs, addr)
				regs[op.dst] = int64(addr)
			}
		}
		if !jump {
			return addrs, term
		}
		jump = false
		pc = int(e.ops[term].target)
		term = int(e.runs[pc].term)
	}
}

// runBlock executes a whole mixed-traffic superblock fused — both segments
// of a jump run: register effects and address generation in one pass,
// cache accesses replayed in program order through one batched hierarchy
// walk, counters settled from the precomputed aggregates, then the
// terminator. The return value is runTerm's: false after a completion or a
// halt.
func (e *sbEngine) runBlock(pc int, r *sbRun) bool {
	p := e.p
	regs := p.regs
	sites := p.sites
	base := p.base
	term, jump := int(r.term), r.jump
	accs := e.accs[:0]
	for {
		body := e.ops[pc:term:term]
		for j := range body {
			op := &body[j]
			switch op.kind {
			case sbALUImm:
				regs[op.dst] = alu(ir.BinKind(op.bin), regs[op.x], op.imm)
			case sbALUReg:
				regs[op.dst] = alu(ir.BinKind(op.bin), regs[op.x], regs[op.y])
			case sbConst:
				regs[op.dst] = op.imm
			case sbLoadSeq:
				st := &sites[op.site]
				off := st.cursor
				st.cursor += op.stride
				if st.cursor >= op.size {
					st.cursor = 0
				}
				addr := base + op.gbase + off
				accs = append(accs, cache.Access{Addr: addr, Kind: cache.AccessLoad, NT: op.nt})
				regs[op.dst] = int64(addr)
			case sbLoad:
				addr := p.address(&p.code[pc+j].Gen)
				accs = append(accs, cache.Access{Addr: addr, Kind: cache.AccessLoad, NT: op.nt})
				regs[op.dst] = int64(addr)
			case sbStore:
				accs = append(accs, cache.Access{Addr: p.address(&p.code[pc+j].Gen), Kind: cache.AccessStore, NT: op.nt})
			case sbPrefetch:
				accs = append(accs, cache.Access{Addr: p.address(&p.code[pc+j].Gen), Kind: cache.AccessPrefetch, NT: op.nt})
			case sbPrefetchLead:
				accs = append(accs, cache.Access{Addr: p.addressPeek(&p.code[pc+j].Gen, uint64(op.imm)), Kind: cache.AccessPrefetch, NT: op.nt})
			case sbPrefetchPaired:
				// Issue cost only; already in the aggregate.
			}
		}
		if !jump {
			break
		}
		jump = false
		pc = int(e.ops[term].target)
		term = int(e.runs[pc].term)
	}
	e.accs = accs // keep the grown buffer
	var stall uint64
	if len(accs) > 0 {
		stall = p.m.hier.Replay(p.core, accs, loadMLP)
	}
	p.ctr.Cycles += uint64(r.fixed) + stall
	p.ctr.Insts += uint64(r.insts)
	p.ctr.Branches += uint64(r.branches)
	p.ctr.Loads += uint64(r.loads)
	p.ctr.Stores += uint64(r.stores)
	p.ctr.Prefetches += uint64(r.prefetches)
	return e.runTerm(term)
}

// runTerm executes the terminator at term. Mirror the oracle's PC
// discipline: by the time the terminator executes, the PC has advanced to
// it (a halt or a final-return leaves the PC parked there). Returns false
// after a completion or a halt — the only outcomes that can change the
// caller's scheduling state (halted flag, gated work budget).
func (e *sbEngine) runTerm(term int) bool {
	p := e.p
	regs := p.regs
	p.pc = term
	op := &e.ops[term]
	switch op.kind {
	case sbBr:
		y := op.imm
		if op.yIsReg {
			y = regs[op.y]
		}
		if cmp(ir.CmpKind(op.bin), regs[op.x], y) {
			p.transfer(int(op.target), false)
		} else {
			p.pc = term + 1
		}
	case sbJmp:
		p.transfer(int(op.target), false)
	case sbCall:
		p.pushFrame(term + 1)
		p.transfer(int(op.target), false)
	case sbCallEVT:
		// Dispatch reads the live EVT on every call — redirects and
		// reverts take effect at the very next virtualized call, with
		// nothing to invalidate.
		p.pushFrame(term + 1)
		p.transfer(p.evt.Target(int(op.aux)), true)
	case sbRet:
		// A completion may have halted the process or drained the gated
		// budget: the caller must re-run its scheduling checks.
		return !p.ret()
	case sbHalt:
		p.halted = true
		return false
	}
	return true
}
