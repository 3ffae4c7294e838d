package machine

// interpEngine is the reference execution engine: the original
// one-instruction-at-a-time interpreter. It is the semantics oracle —
// every other engine is differentially tested against it — and stays
// deliberately simple: no decoded state, no batching, nothing to
// invalidate.
type interpEngine struct{ p *Process }

func (e *interpEngine) Name() string { return EngineInterp }

// CodeInstalled is a no-op: the interpreter reads the live code image on
// every step, so a grown image needs no invalidation.
func (e *interpEngine) CodeInstalled(int) {}

// RunUntil advances the process's local clock to the global quantum
// boundary, executing instructions, naps, sleeps and stolen cycles.
func (e *interpEngine) RunUntil(until uint64) {
	p := e.p
	napWindow := p.m.napWindow
	hier := p.m.hier
	for p.ctr.Cycles < until {
		if p.halted {
			p.ctr.Cycles = until
			return
		}
		// Forced sleep has priority (the flux probe stops even napping
		// processes fully).
		if p.sleepUntil > p.ctr.Cycles {
			end := min64(p.sleepUntil, until)
			p.ctr.SleepCycles += end - p.ctr.Cycles
			p.ctr.Cycles = end
			continue
		}
		// Stolen cycles (same-core runtime compiler).
		if p.stealPending > 0 {
			take := min64(p.stealPending, until-p.ctr.Cycles)
			p.stealPending -= take
			p.ctr.StolenCycles += take
			p.ctr.Cycles += take
			continue
		}
		// A gated server with no pending requests idles until work arrives.
		if p.opts.Gated && p.workBudget == 0 {
			p.ctr.IdleCycles += until - p.ctr.Cycles
			p.ctr.Cycles = until
			continue
		}
		// Napping duty cycle: sleep the first napIntensity fraction of
		// each window.
		if p.napIntensity > 0 {
			wStart := p.ctr.Cycles / napWindow * napWindow
			napEnd := wStart + uint64(p.napIntensity*float64(napWindow))
			if p.ctr.Cycles < napEnd {
				end := min64(napEnd, until)
				p.ctr.NapCycles += end - p.ctr.Cycles
				p.ctr.Cycles = end
				continue
			}
		}
		p.step(hier)
	}
}
