package machine

// interpEngine is the reference execution engine: the original
// one-instruction-at-a-time interpreter. It is the semantics oracle —
// every other engine is differentially tested against it — and stays
// deliberately simple: no decoded state, no batching, nothing to
// invalidate.
type interpEngine struct{ p *Process }

// CodeInstalled is a no-op: the interpreter reads the live code image on
// every step, so a grown image needs no invalidation.
func (e *interpEngine) CodeInstalled(int) {}

// RunUntil advances the process's local clock to the global quantum
// boundary: before every instruction, schedule settles naps, sleeps,
// stolen cycles and gated idling, and step runs one instruction when none
// of them holds the process back.
func (e *interpEngine) RunUntil(until uint64) {
	p := e.p
	for p.ctr.Cycles < until {
		if _, idle := p.schedule(until); !idle {
			p.step()
		}
	}
}
