// Package pcsp implements Protean Code Software Prefetching: a second
// protean runtime policy, demonstrating the paper's generality claim that
// "once compiled with pcc, any protean code runtime can be used",
// applying "different classes of optimizations in the pursuit of different
// objectives to the same application binary" (Section III design
// principles).
//
// Where PC3D is extrospective (it reshapes the host for its neighbours'
// benefit), PCSP is purely introspective: it speeds the host itself up by
// inserting lead prefetches ahead of streaming loads in hot innermost
// loops — a structural IR transform, unlike PC3D's attribute-level hint
// toggling. Candidate variants are generated online from the embedded IR,
// dispatched through the EVT, measured empirically against the running
// baseline, and kept only when they deliver a real gain.
//
// The simulated prefetch is idealized (a warmed line is immediately
// available), so measured gains are upper bounds; the decision machinery —
// profile-guided targeting, online A/B measurement, revert on regression —
// is the point.
package pcsp

import (
	"fmt"

	"repro/internal/agentloop"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sampling"
)

// Config configures the optimizer (consumed by New).
type Config struct {
	// Runtime is the attached protean runtime driving the host. Required.
	Runtime *core.Runtime
	// LeadIters are the candidate prefetch distances, in iterations ahead
	// (default 4 and 16; lead bytes = iterations × stride).
	LeadIters []int64
	// MaxFuncs bounds how many hot functions are optimized (default 3).
	MaxFuncs int
}

// Fixed policy constants (tabulated in DESIGN §4). Durations are
// milliseconds of simulated time.
const (
	// warmupMs precedes profiling-based decisions.
	warmupMs = 200
	// settleMs follows each dispatch before measuring.
	settleMs = 50
	// windowMs is the BPS measurement window.
	windowMs = 100
	// minGain is the relative BPS improvement required to keep a variant.
	minGain = 0.03
)

// Result records the outcome for one optimized function.
type Result struct {
	Func string
	// Targets is how many streaming loads were prefetched.
	Targets int
	// LeadIters is the winning prefetch distance (0 when not kept).
	LeadIters int64
	// Gain is the best measured relative BPS improvement.
	Gain float64
	// Kept reports whether the variant stayed dispatched.
	Kept bool
}

// Controller runs the optimization pass. It implements machine.Agent.
type Controller struct {
	rt   *core.Runtime
	cfg  Config
	loop *agentloop.Loop
	m    *machine.Machine // set at the policy's first tick

	meter   *sampling.Meter
	results []Result
	done    bool
}

// New builds a controller over cfg.Runtime, which must already be attached
// to the host and registered on the machine.
func New(cfg Config) *Controller {
	if len(cfg.LeadIters) == 0 {
		cfg.LeadIters = []int64{4, 16}
	}
	if cfg.MaxFuncs == 0 {
		cfg.MaxFuncs = 3
	}
	c := &Controller{rt: cfg.Runtime, cfg: cfg, meter: sampling.NewMeter(cfg.Runtime.Host())}
	c.loop = agentloop.New(c.policy)
	return c
}

// Tick implements machine.Agent.
func (c *Controller) Tick(m *machine.Machine) { c.loop.Tick(m) }

// Close stops the policy goroutine.
func (c *Controller) Close() { c.loop.Close() }

// Done reports whether the optimization pass finished.
func (c *Controller) Done() bool { return c.done }

// Results lists per-function outcomes (valid once Done).
func (c *Controller) Results() []Result { return c.results }

// streamTargets returns the IDs of prefetchable loads: innermost-loop
// sequential loads of fn.
func streamTargets(mod *ir.Module, fn string) []int {
	f := mod.Func(fn)
	if f == nil {
		return nil
	}
	lf := ir.BuildLoopForest(f)
	if lf.MaxDepth == 0 {
		return nil
	}
	var ids []int
	for _, b := range f.Blocks {
		if !lf.AtMaxDepth(b.Index) {
			continue
		}
		for _, in := range b.Instrs {
			if ld, ok := in.(*ir.Load); ok && ld.Acc.Pattern == ir.Seq && !ld.NT {
				ids = append(ids, ld.ID)
			}
		}
	}
	return ids
}

// leadPrefetchTransform inserts a lead prefetch before every targeted load
// of fn. The prefetch shares the load's MemID, so it peeks the same stream
// cursor the load advances.
func leadPrefetchTransform(fn string, targets map[int]bool, iters int64) core.Transform {
	return func(m *ir.Module) error {
		f := m.Func(fn)
		if f == nil {
			return fmt.Errorf("pcsp: function %q not in module", fn)
		}
		for _, b := range f.Blocks {
			var out []ir.Instr
			for _, in := range b.Instrs {
				if ld, ok := in.(*ir.Load); ok && targets[ld.ID] {
					stride := ld.Acc.Stride
					if stride == 0 {
						stride = 8
					}
					out = append(out, &ir.Prefetch{
						Acc: ld.Acc, MemID: ld.MemID, Lead: iters * stride,
					})
				}
				out = append(out, in)
			}
			b.Instrs = out
		}
		return nil
	}
}

// wait parks the policy for at least ms milliseconds of simulated time.
// Closing the controller unwinds the policy from here.
func (c *Controller) wait(ms uint64) {
	c.loop.WaitCycles(ms * uint64(c.m.Config().FreqHz/1000))
}

// policy is the sequential, one-shot optimization pass.
func (c *Controller) policy(l *agentloop.Loop) {
	c.m = l.Wait()
	c.wait(warmupMs)

	prof := c.rt.Sampler().Lifetime()
	optimized := 0
	for _, fn := range prof.Hottest() {
		if optimized >= c.cfg.MaxFuncs {
			break
		}
		ids := streamTargets(c.rt.IR(), fn)
		if len(ids) == 0 {
			continue
		}
		optimized++
		targets := make(map[int]bool, len(ids))
		for _, id := range ids {
			targets[id] = true
		}

		baseline := c.measureBPS()
		res := Result{Func: fn, Targets: len(ids)}
		var bestVariant *core.Variant
		for _, iters := range c.cfg.LeadIters {
			v := c.compileDispatch(fn, targets, iters)
			if v == nil {
				continue // compile failed; skip this candidate
			}
			gain := c.measureBPS()/baseline - 1
			if gain > res.Gain {
				res.Gain = gain
				res.LeadIters = iters
				bestVariant = v
			}
		}
		if res.Gain >= minGain && bestVariant != nil {
			if c.rt.Dispatched(fn) != bestVariant {
				if err := c.rt.Dispatch(bestVariant); err == nil {
					res.Kept = true
				}
			} else {
				res.Kept = true
			}
		}
		if !res.Kept {
			res.LeadIters = 0
			if err := c.rt.Revert(fn); err != nil {
				// The function may not be virtualized; nothing to revert.
				res.Kept = false
			}
		}
		c.results = append(c.results, res)
	}
	c.done = true
}

// measureBPS settles then measures the host's branches per second.
func (c *Controller) measureBPS() float64 {
	c.wait(settleMs)
	c.meter.Read(c.m)
	c.wait(windowMs)
	return c.meter.Read(c.m).BPS
}

// compileDispatch requests, waits for, and dispatches one candidate; nil
// when the compile or the dispatch failed.
func (c *Controller) compileDispatch(fn string, targets map[int]bool, iters int64) *core.Variant {
	var got *core.Variant
	var cerr error
	done := false
	err := c.rt.RequestVariant(fn, leadPrefetchTransform(fn, targets, iters), iters,
		func(v *core.Variant, err error) { got, cerr, done = v, err, true })
	if err != nil {
		return nil
	}
	for !done {
		c.loop.Wait()
	}
	if cerr != nil || c.rt.Dispatch(got) != nil {
		return nil
	}
	return got
}
