package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// slice is one timed call into a public function of the repository, doing
// deterministic work: slice i of a workload does bit-identical work in
// every round.
type slice struct {
	// name is unique within a round.
	name string
	// layer names the function called; it is the span name and the row the
	// slice's cost is booked under in the per-layer table.
	layer string
	// call is the timed region: exactly one call into the layer.
	call func() error
	// digest hashes the call's observable result. It runs untimed, after
	// the call, and must not change simulator state.
	digest func() uint64
}

// scenario is one of the benchmark's workloads: a closed-loop, single-client
// input set. (The type cannot be called workload: that is the application
// catalog's package.)
type scenario interface {
	// Setup performs one set-up pass: everything a round needs that is not
	// simulation. It is timed as a whole and repeated. Between its steps it
	// calls yield, which stops the clock and lets the collector run, as the
	// gaps between a round's slices do.
	Setup(yield func()) error
	// Round constructs fresh state (modelled caches empty) and returns the
	// round's slices in execution order. Construction is untimed here; it
	// is what Setup times.
	Round() ([]slice, error)
	// Work returns the work units the most recent round performed.
	Work() float64
	// Verify runs the workload's untimed correctness checks. ref maps
	// slice name to round 0's digest.
	Verify(c *checker, ref map[string]uint64)
}

// checker counts operations. One operation is one timed slice or one
// verification check.
type checker struct {
	attempted, failed int
	log               io.Writer
}

// check records one operation and reports a failure on the log.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "FAILED: "+format+"\n", args...)
	}
}

// options are one invocation's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
}

// Round and pass counts. A smoke run only proves the plumbing.
const (
	minRounds       = 12
	minTracedRounds = 6
	smokeRounds     = 2
	setupPasses     = 5
	smokePasses     = 1
	maxSetupPasses  = 15
	setupBudget     = 1500 * time.Millisecond
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundsResult is what the measured rounds produce.
type roundsResult struct {
	rounds     int
	costs      ledger
	rawWall    []float64 // per round: summed raw slice wall
	calibs     []float64 // every calibration taken, seconds
	names      []string  // slice names, round 0
	ref        map[string]uint64
	simDigest  uint64
	allocBytes uint64
	mallocs    uint64
	// factor[r][i] is calibrated ÷ raw for slice i of round r.
	factor [][]float64
	// peakRSS is the resident-set high-water mark when the rounds ended.
	peakRSS float64
}

// timeCalibrated runs fn inside a span, bracketed by the calibration kernel,
// and returns its cost in calibrated seconds.
func timeCalibrated(tr *tracer, span string, fn func()) float64 {
	before := calibrate()
	id := tr.begin(span)
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	tr.end(id)
	return calibrated(wall, before, calibrate())
}

// measureSetup times the cold set-up pass and then at least min warm
// passes — more, up to maxSetupPasses, while they fit in budget, so a
// short set-up gets the samples its higher relative noise needs. Each pass
// is bracketed by the calibration kernel; the clock stops wherever the pass
// yields, and the collector runs there if the heap has grown. It returns the
// cold cost and the estimate over the warm passes in calibrated seconds.
func measureSetup(w scenario, min int, budget time.Duration, tr *tracer) (cold, warm float64, err error) {
	var costs []float64
	var gc collector
	start := time.Now()
	for p := 0; p <= min || (p <= maxSetupPasses && time.Since(start) < budget); p++ {
		gc.collect()
		before := calibrate()
		id := tr.begin("setup")
		var wall time.Duration
		t0 := time.Now()
		err = w.Setup(func() {
			wall += time.Since(t0)
			gc.collectIfGrown()
			t0 = time.Now()
		})
		wall += time.Since(t0)
		tr.end(id)
		if err != nil {
			return 0, 0, fmt.Errorf("set-up pass %d: %w", p, err)
		}
		cs := calibrated(wall.Seconds(), before, calibrate())
		if p == 0 {
			cold = cs
		} else {
			costs = append(costs, cs)
		}
	}
	return cold, estimate(costs), nil
}

// measureRounds executes the workload's slice list for at least min rounds
// and for as many as fit in budget. Every slice is bracketed by the
// calibration kernel; the calibration after slice i is the one before
// slice i+1.
func measureRounds(w scenario, min int, budget time.Duration, tr *tracer, c *checker) (*roundsResult, error) {
	res := &roundsResult{ref: make(map[string]uint64)}
	var digests []uint64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var gc collector
	start := time.Now()
	// A further round starts only if, at the pace so far, it ends in time.
	fits := func(r int) bool {
		elapsed := time.Since(start)
		return elapsed+elapsed/time.Duration(r) <= budget
	}
	for r := 0; r < min || fits(r); r++ {
		gc.collect()
		tr.at(r, -1)
		roundSpan := tr.begin("round")
		var slices []slice
		var err error
		tr.in("construct", func() { slices, err = w.Round() })
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		if r > 0 && len(slices) != len(res.names) {
			return nil, fmt.Errorf("round %d has %d slices, round 0 had %d", r, len(slices), len(res.names))
		}
		var calib float64
		tr.in("bench.calibrate", func() { calib = calibrate() })
		res.calibs = append(res.calibs, calib)
		raw := 0.0
		factors := make([]float64, len(slices))
		for i := range slices {
			s := &slices[i]
			tr.at(r, i)
			id := tr.begin(s.layer)
			t0 := time.Now()
			err := s.call()
			wall := time.Since(t0).Seconds()
			tr.end(id)
			var after float64
			tr.in("bench.calibrate", func() { after = calibrate() })
			res.calibs = append(res.calibs, after)
			cs := calibrated(wall, calib, after)
			calib = after
			raw += wall
			factors[i] = cs / wall
			res.costs.add(i, cs)
			var d uint64
			tr.in("bench.digest", func() { d = s.digest() })
			gc.collectIfGrown()
			if r == 0 {
				res.names = append(res.names, s.name)
				res.ref[s.name] = d
				digests = append(digests, d)
				c.check(err == nil, "%s: %v", s.name, err)
			} else {
				c.check(err == nil && d == digests[i] && s.name == res.names[i],
					"%s round %d: err=%v digest %016x, round 0 had %016x (%s)", s.name, r, err, d, digests[i], res.names[i])
			}
		}
		tr.at(r, -1)
		tr.end(roundSpan)
		res.rawWall = append(res.rawWall, raw)
		res.factor = append(res.factor, factors)
		res.rounds++
	}
	tr.at(-1, -1)
	res.peakRSS = peakRSSMiB()
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	h := fnv.New64a()
	for _, d := range digests {
		h.Write(strconv.AppendUint(nil, d, 16))
	}
	res.simDigest = h.Sum64()
	return res, nil
}

// collector runs the garbage collector at untimed points. The runtime's own
// pacing is off (see main), so between explicit collections the heap only
// grows; collecting between slices and set-up steps whenever it has grown
// by gcEvery keeps the footprint near what a paced collector would hold —
// allocation then reuses cache-warm memory instead of streaming through
// fresh pages — and the trigger depends on bytes allocated, which repeat,
// never on time.
type collector struct {
	sample [1]metrics.Sample
	last   uint64
}

const gcEvery = 32 << 20

func (c *collector) allocated() uint64 {
	c.sample[0].Name = "/gc/heap/allocs:bytes"
	metrics.Read(c.sample[:])
	return c.sample[0].Value.Uint64()
}

func (c *collector) collect() {
	runtime.GC()
	c.last = c.allocated()
}

func (c *collector) collectIfGrown() {
	if c.allocated()-c.last >= gcEvery {
		c.collect()
	}
}

// layerTable prints, per layer, its calibrated self time in one round: each
// span's self time is scaled by its slice's calibration factor in that
// round, each (slice, layer) pair takes the estimator over the rounds, and
// the pairs are summed per layer.
func layerTable(out io.Writer, tr *tracer, res *roundsResult) {
	type key struct {
		slice int
		name  string
	}
	child := make([]time.Duration, len(tr.spans))
	for i := range tr.spans {
		if p := tr.spans[i].parent; p >= 0 {
			child[p] += tr.spans[i].end - tr.spans[i].start
		}
	}
	perRound := make(map[key]map[int]float64)
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.round < 0 || s.slice < 0 || strings.HasPrefix(s.name, "bench.") {
			continue
		}
		k := key{s.slice, s.name}
		if perRound[k] == nil {
			perRound[k] = make(map[int]float64)
		}
		perRound[k][s.round] += (s.end - s.start - child[i]).Seconds() * res.factor[s.round][s.slice]
	}
	byLayer := make(map[string]float64)
	for k, rounds := range perRound {
		var xs []float64
		for _, v := range rounds {
			xs = append(xs, v)
		}
		byLayer[k.name] += estimate(xs)
	}
	names := make([]string, 0, len(byLayer))
	sum := 0.0
	for n, v := range byLayer {
		names = append(names, n)
		sum += v
	}
	sort.Slice(names, func(i, j int) bool {
		if byLayer[names[i]] != byLayer[names[j]] {
			return byLayer[names[i]] > byLayer[names[j]]
		}
		return names[i] < names[j]
	})
	total := res.costs.roundCost()
	fmt.Fprintf(out, "per-layer self time in one round (calibrated, %d traced rounds):\n", res.rounds)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %12.6f cs  %5.1f%%\n", n, byLayer[n], 100*byLayer[n]/total)
	}
	fmt.Fprintf(out, "  %-28s %12.6f cs  %5.1f%% of traced round_cs %.6f\n", "sum of layers", sum, 100*sum/total, total)
}

// spanCost measures what recording one span costs, in calibrated seconds,
// on a throwaway tracer.
func spanCost() float64 {
	const spans = 1 << 16
	xs := make([]float64, 5)
	for i := range xs {
		tr := newTracer("")
		xs[i] = timeCalibrated(nil, "", func() {
			for j := 0; j < spans; j++ {
				tr.end(tr.begin("span"))
			}
		}) / spans
	}
	return estimate(xs)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// run executes one invocation: set-up passes, measured rounds, the
// verification pass and, when tracing, the layer probes. Progress and
// tables go to out; the returned report is the machine-readable result.
func run(o options, out io.Writer) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer(o.workload)
	}
	w, err := newWorkload(o, tr)
	if err != nil {
		return nil, err
	}
	c := &checker{log: out}
	passes, passBudget, min := setupPasses, setupBudget, minRounds
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		// The probes need the rest of the run.
		min, budget = minTracedRounds, budget*9/20
	}
	if o.smoke {
		passes, passBudget, min, budget = smokePasses, 0, smokeRounds, 0
	}

	cold, setup, err := measureSetup(w, passes, passBudget, tr)
	if err != nil {
		return nil, err
	}
	setupPeak := peakRSSMiB()
	res, err := measureRounds(w, min, budget, tr, c)
	if err != nil {
		return nil, err
	}
	work := w.Work()
	w.Verify(c, res.ref)

	fmt.Fprintf(out, "workload %s seed %d: %d rounds x %d slices, %.0f work units per round\n",
		o.workload, o.seed, res.rounds, len(res.names), work)
	fmt.Fprintf(out, "sim_digest %s seed=%d %016x\n", o.workload, o.seed, res.simDigest)
	fmt.Fprintf(out, "peak RSS %.1f MiB after set-up, %.1f after the rounds\n", setupPeak, res.peakRSS)

	rep := &report{Metrics: make(map[string]metric)}
	if !o.trace {
		round := res.costs.roundCost()
		rep.Metrics["setup_s"] = metric{setup, "s"}
		rep.Metrics["round_cs"] = metric{round, "cs"}
		rep.Metrics["work_per_cs"] = metric{work / round, "work/cs"}
		rep.Metrics["alloc_mb"] = metric{float64(res.allocBytes) / float64(res.rounds) / (1 << 20), "MiB"}
		rep.Metrics["allocs_k"] = metric{float64(res.mallocs) / float64(res.rounds) / 1000, "kalloc"}
		rep.Metrics["peak_rss_mb"] = metric{res.peakRSS, "MiB"}
		fmt.Fprintf(out, "bench.raw_wall_s %.4f  bench.slowdown_p50 %.4f  bench.calib_ms_p50 %.4f  bench.setup_cold_s %.4f\n",
			median(res.rawWall), res.costs.slowdownP50(), 1e3*median(res.calibs), cold)
	} else {
		layerTable(out, tr, res)
		// Spans are recorded only around the calls the benchmark itself
		// makes, so tracing's cost is the recording: spans per round times
		// the cost of one. (Alternating traced and untraced rounds was
		// tried: six rounds a side resolve +-3 %, a thousand times the
		// effect.) bench.traced_round_cs is there to be compared with the
		// untraced run's round_cs.
		traced := res.costs.roundCost()
		spansPerRound := 0
		for i := range tr.spans {
			if tr.spans[i].round == 0 {
				spansPerRound++
			}
		}
		rep.Metrics["bench.raw_wall_s"] = metric{median(res.rawWall), "s"}
		rep.Metrics["bench.slowdown_p50"] = metric{res.costs.slowdownP50(), "ratio"}
		rep.Metrics["bench.calib_ms_p50"] = metric{1e3 * median(res.calibs), "ms"}
		rep.Metrics["bench.setup_cold_s"] = metric{cold, "cs"}
		rep.Metrics["bench.traced_round_cs"] = metric{traced, "cs"}
		rep.Metrics["bench.trace_overhead_pct"] = metric{100 * float64(spansPerRound) * spanCost() / traced, "%"}
		if err := runProbes(o, tr, rep.Metrics); err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := tr.writeChrome(o.traceOut); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
			fmt.Fprintf(out, "wrote %d spans to %s\n", len(tr.spans), o.traceOut)
		}
	}
	rep.Attempted, rep.Failed = c.attempted, c.failed
	rep.Correct = c.failed == 0
	return rep, nil
}

// fnvOf hashes the %v rendering of its arguments, for result digests. fmt
// prints maps in key order, so the rendering is deterministic.
func fnvOf(vals ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, vals...)
	return h.Sum64()
}
