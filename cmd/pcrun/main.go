// Command pcrun loads a compiled .pcb binary and executes it on the
// simulated machine, reporting progress counters — the "run it" half of the
// pcc → pcrun toolchain. A binary that fails isa.VerifyProgram is rejected
// (exit 1) before anything runs.
//
// Usage:
//
//	pcc -app libquantum -o lq.pcb
//	pcrun -seconds 2 lq.pcb
//	pcrun -seconds 2 -stress 50ms lq.pcb   # with a recompilation stress runtime
//	pcrun -stress 50ms -metrics - -trace events.jsonl lq.pcb
//	pcrun -profile lq.folded -spans lq.trace.json lq.pcb
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/progbin"
	"repro/internal/sampling"
	"repro/internal/telemetry"
)

func main() {
	var (
		seconds = flag.Float64("seconds", 1.0, "simulated run duration")
		stress  = flag.Duration("stress", 0, "attach a protean runtime recompiling random functions at this interval (0 = off)")
		sameCPU = flag.Bool("same-core", false, "run the stress runtime on the host's core")
		itrace  = flag.Int("itrace", 0, "dump the last N executed instructions at exit")
		engine  = flag.String("engine", machine.DefaultEngine, "execution engine: superblock|interp (bit-identical; interp is the single-step oracle)")

		metricsPath = flag.String("metrics", "", "write run telemetry in Prometheus text format to this file (- = stdout)")
		tracePath   = flag.String("trace", "", "write the telemetry event trace as JSONL to this file (- = stdout)")
		spansPath   = flag.String("spans", "", "write recorded spans + events as Chrome trace-event JSON (Perfetto-loadable) to this file (- = stdout)")
		profilePath = flag.String("profile", "", "sample the run and write a block-granular deep profile as folded stacks (- = stdout)")
		profFormat  = flag.String("profile-format", "folded", "deep profile format: folded|pprof-raw")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pcrun [flags] <binary.pcb>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var reg *telemetry.Registry
	if *metricsPath != "" || *tracePath != "" || *spansPath != "" {
		reg = telemetry.New(telemetry.Config{})
	}
	m := machine.New(machine.Config{Cores: 2, Engine: *engine, Telemetry: reg})
	// Machine.RunSeconds converts the quantum count to an int: out of range,
	// it would silently run one quantum.
	quanta := *seconds * m.Config().FreqHz / float64(m.Config().QuantumCycles)
	if !(*seconds > 0) || !(quanta < math.MaxInt) {
		fmt.Fprintf(os.Stderr, "pcrun: -seconds %v: want a positive duration of fewer than 2^63 quanta\n", *seconds)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcrun: %v\n", err)
		os.Exit(1)
	}
	bin, err := progbin.Read(f)
	f.Close()
	if err == nil {
		err = isa.VerifyProgram(bin.Program)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcrun: %v\n", err)
		os.Exit(1)
	}

	p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true, TraceDepth: *itrace})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcrun: %v\n", err)
		os.Exit(1)
	}
	var writeProfile func(io.Writer) error
	if *profilePath != "" {
		sampler := sampling.NewPCSampler(p, m.Config().QuantumCycles)
		m.AddAgent(sampler)
		switch *profFormat {
		case "folded":
			writeProfile = func(w io.Writer) error { return sampler.DeepLifetime().WriteFolded(w, p.Name()) }
		case "pprof-raw":
			writeProfile = func(w io.Writer) error {
				return sampler.DeepLifetime().WritePprofRaw(w, m.Config().QuantumCycles)
			}
		default:
			fmt.Fprintf(os.Stderr, "pcrun: unknown -profile-format %q (folded|pprof-raw)\n", *profFormat)
			os.Exit(2)
		}
	}

	var rt *core.Runtime
	if *stress > 0 {
		runtimeCore := 1
		if *sameCPU {
			runtimeCore = core.SameCore
		}
		rt, err = core.New(core.Config{Machine: m, Host: p, RuntimeCore: runtimeCore, Telemetry: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcrun: %v (compile with pcc without -plain for a protean binary)\n", err)
			os.Exit(1)
		}
		m.AddAgent(rt)
		m.AddAgent(core.NewStressRecompiler(rt, m.Cycles(stress.Seconds()), 1))
	}

	wall := time.Now()
	m.RunSeconds(*seconds)
	c := p.Counters()

	secs := m.NowSeconds()
	fmt.Printf("ran %q for %.2f simulated seconds (%.2fs wall)\n", p.Name(), secs, time.Since(wall).Seconds())
	fmt.Printf("  instructions:  %12d  (%.3g /s)\n", c.Insts, float64(c.Insts)/secs)
	fmt.Printf("  branches:      %12d  (%.3g /s)\n", c.Branches, float64(c.Branches)/secs)
	fmt.Printf("  loads:         %12d\n", c.Loads)
	fmt.Printf("  stores:        %12d\n", c.Stores)
	fmt.Printf("  prefetches:    %12d\n", c.Prefetches)
	fmt.Printf("  work units:    %12d\n", c.Completions)
	s := m.Hierarchy().CoreStats(0)
	fmt.Printf("  LLC accesses:  %12d  (miss rate %.1f%%)\n", s.LLCAccesses,
		100*float64(s.LLCMisses)/float64(max(s.LLCAccesses, 1)))
	if rt != nil {
		fmt.Printf("  recompiles:    %12d  (runtime used %.2f%% of server cycles, %d code-cache words)\n",
			rt.Compiles(), rt.ServerCycleFraction()*100, rt.CodeCacheWords())
	}
	if *itrace > 0 {
		fmt.Printf("last %d executed instructions:\n", *itrace)
		for _, e := range p.Trace() {
			fn := ""
			if fi, ok := p.FuncAt(e.PC); ok {
				fn = fi.Name
				if fi.Variant > 0 {
					fn = fmt.Sprintf("%s#v%d", fn, fi.Variant)
				}
			}
			fmt.Printf("  cycle %12d  pc %6d  %s\n", e.Cycle, e.PC, fn)
		}
	}

	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*metricsPath, reg.WritePrometheus},
		{*tracePath, reg.WriteJSONL},
		{*spansPath, reg.WriteChromeTrace},
		{*profilePath, writeProfile},
	} {
		if out.path == "" {
			continue
		}
		if err := telemetry.WriteExport(out.path, out.write); err != nil {
			fmt.Fprintf(os.Stderr, "pcrun: %v\n", err)
			os.Exit(1)
		}
	}
}
