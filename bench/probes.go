package main

import "runtime"

// Layer probes. Fleet.Run and the harness Runner are opaque from outside,
// so spans around them cannot say where their time goes; the traced run
// therefore also times each layer's public entry points directly, under a
// "probe" parent span. The suite is the same on every workload (the
// contract asks every traced run for every per-layer metric) and every
// probe builds its own inputs from -seed.
//
// Probes are measured like slices — calibrated, estimator over repeats —
// but with few repeats: they are diagnostic, carry no regression bound,
// and locate a change that the end-to-end metrics detected.

// prober is the probe suite's shared state.
type prober struct {
	seed  int64
	smoke bool // one repeat per probe
	tr    *tracer
	out   map[string]metric
	// mix is a set-up engine-mix workload: the compiled catalog (keyed as
	// its bins are) and its machine builder, for the machine and runtime
	// probes.
	mix *engineMix
}

func (p *prober) set(name string, value float64, unit string) {
	p.out[name] = metric{value, unit}
}

// time measures one probe: prep builds fresh inputs untimed and returns
// the timed call; the cost over reps repeats is the estimator's
// (the smallest below three repeats, which is all the expensive probes can
// afford), in calibrated seconds.
func (p *prober) time(span string, reps int, prep func() func()) float64 {
	if p.smoke {
		reps = 1
	}
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		call := prep()
		runtime.GC()
		xs = append(xs, timeCalibrated(p.tr, span, call))
	}
	if reps < 3 {
		return minOf(xs)
	}
	return estimate(xs)
}

func minOf(xs []float64) float64 {
	lo := xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
	}
	return lo
}

// overheadPct is how much dearer with is than without, in percent.
func overheadPct(with, without float64) float64 { return 100 * (with - without) / without }

// rng is a xorshift64 address-stream generator seeded from -seed.
type rng uint64

func newRNG(seed int64, salt uint64) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ salt*0xbf58476d1ce4e5b9)
	if r == 0 {
		r = 88172645463325252
	}
	return r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// runProbes runs the suite and stores every per-layer metric it owns in
// out.
func runProbes(o options, tr *tracer, out map[string]metric) error {
	p := &prober{seed: o.seed, smoke: o.smoke, tr: tr, out: out, mix: newEngineMix(o, tr)}
	id := tr.begin("probe")
	defer tr.end(id)
	if err := p.mix.Setup(func() {}); err != nil {
		return err
	}
	for _, group := range []func() error{
		p.compilerProbes,
		p.cacheProbes,
		p.machineProbes,
		p.runtimeProbes,
		p.harnessProbes,
		p.fleetProbes,
	} {
		if err := group(); err != nil {
			return err
		}
	}
	return nil
}
