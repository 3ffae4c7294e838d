// Prefetching: a second runtime policy on the same protean binary.
//
// Demonstrates the generality property of protean code: the lbm binary
// compiled once with pcc is first accelerated *introspectively* by the
// PCSP runtime (online software prefetching — a structural IR transform),
// then reverted — the same binary PC3D would manage extrospectively.
//
// Run: go run ./examples/prefetching
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pcsp"
	"repro/internal/sampling"
	"repro/internal/workload"
)

func main() {
	bin, err := workload.MustByName("lbm").CompileProtean()
	if err != nil {
		log.Fatal(err)
	}
	m := machine.New(machine.Config{Cores: 2})
	host, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	if err != nil {
		log.Fatal(err)
	}
	rt, err := core.New(core.Config{Machine: m, Host: host, RuntimeCore: 1})
	if err != nil {
		log.Fatal(err)
	}
	m.AddAgent(rt)

	meter := sampling.NewMeter(host)
	meter.Read(m)
	m.RunSeconds(1)
	base := meter.Read(m)
	fmt.Printf("lbm baseline:    %8.0f branches/s\n", base.BPS)

	ctrl := pcsp.New(pcsp.Config{Runtime: rt})
	defer ctrl.Close()
	m.AddAgent(ctrl)
	m.RunSeconds(3) // the pass profiles, generates, measures, decides
	if !ctrl.Done() {
		log.Fatal("optimization pass did not finish")
	}
	for _, r := range ctrl.Results() {
		verdict := "reverted"
		if r.Kept {
			verdict = fmt.Sprintf("kept (lead %d iterations)", r.LeadIters)
		}
		fmt.Printf("  %-16s %2d streaming loads, gain %+5.1f%% -> %s\n",
			r.Func, r.Targets, r.Gain*100, verdict)
	}

	meter.Read(m)
	m.RunSeconds(1)
	opt := meter.Read(m)
	fmt.Printf("lbm with PCSP:   %8.0f branches/s (%.2fx)\n", opt.BPS, opt.BPS/base.BPS)

	if err := rt.RevertAll(); err != nil {
		log.Fatalf("revert: %v", err)
	}
	m.RunSeconds(0.3)
	meter.Read(m)
	m.RunSeconds(1)
	back := meter.Read(m)
	fmt.Printf("after revert:    %8.0f branches/s (the original code, untouched)\n", back.BPS)
	fmt.Printf("runtime used %.2f%% of server cycles across the whole session\n",
		rt.ServerCycleFraction()*100)
}
