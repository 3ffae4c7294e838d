// Command bench is the repository's benchmark: a closed loop with one
// client that measures what the simulator costs the host — per workload,
// six end-to-end metrics with tracing off, or (with -trace 1) per-layer
// metrics from spans around public calls plus layer probes. See README.md
// beside this file for the method, the metric reference and the noise
// study behind the calibrated, sliced timing.
//
//	go -C bench run . -workload engine-mix -seed 1 -seconds 24 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// workloads lists the benchmark's workloads in report order. BENCHMARK.json
// and README.md record why each was chosen.
var workloads = []struct {
	name string
	make func(o options, tr *tracer) scenario
}{
	{"engine-mix", func(o options, tr *tracer) scenario { return newEngineMix(o, tr) }},
	{"paper-figs", func(o options, tr *tracer) scenario { return newPaperFigs(o, tr) }},
	{"fleet-static", func(o options, tr *tracer) scenario { return newFleetStatic(o, tr) }},
	{"fleet-ctrl", func(o options, tr *tracer) scenario { return newFleetCtrl(o, tr) }},
}

func newWorkload(o options, tr *tracer) (scenario, error) {
	for _, w := range workloads {
		if w.name == o.workload {
			return w.make(o, tr), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

func main() {
	var o options
	var trace, aaRuns int
	var aa bool
	var manifestPath string
	flag.StringVar(&o.workload, "workload", "engine-mix", "workload to run: engine-mix, paper-figs, fleet-static or fleet-ctrl")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every machine, fleet and probe address stream")
	flag.Float64Var(&o.seconds, "seconds", 24, "how long the measured rounds last")
	flag.IntVar(&trace, "trace", 0, "1: record spans, run the layer probes and print per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny run that only proves the plumbing: 2 rounds, <= 0.1 simulated seconds")
	flag.BoolVar(&aa, "aa", false, "A/A mode: run every workload as two interleaved sets of runs and compare the set medians to the bounds")
	flag.IntVar(&aaRuns, "aa-runs", 3, "with -aa: runs per set")
	flag.StringVar(&manifestPath, "manifest", "BENCHMARK.json", "with -aa: where the metrics' directions and bounds are read from")
	flag.Parse()
	o.trace = trace != 0

	// One client, one core: the simulator's own worker pools stay at one
	// worker, and the Go scheduler cannot spread GC work to a second CPU
	// whose availability changes from moment to moment.
	runtime.GOMAXPROCS(1)
	// The collector is held off inside every timed region and run
	// explicitly between them: its pacing is the largest single source of
	// run-to-run noise here (paper-figs round_cs spread 2.4 % with it, 0.9 %
	// without; peak RSS 13 % vs 1.8 %). Time metrics therefore exclude
	// collection; alloc_mb and allocs_k report what it would have had to
	// collect. The limit is a safety valve for a shared host.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(1 << 30)

	if aa {
		os.Exit(runAA(o, aaRuns, manifestPath))
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
