// Command pc3d runs one co-location experiment on the simulated server: a
// high-priority external application against a batch host managed by PC3D,
// ReQoS, or nothing, and reports utilization and QoS.
//
// Usage:
//
//	pc3d -host libquantum -ext web-search -target 0.95
//	pc3d -host sphinx3 -ext media-streaming -system reqos -target 0.98
//	pc3d -host lbm -ext er-naive -system none
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fleet"
	"repro/internal/harness"
)

func main() {
	var (
		host    = flag.String("host", "libquantum", "batch host application")
		ext     = flag.String("ext", "web-search", "high-priority external application")
		system  = flag.String("system", "pc3d", "mitigation system: pc3d|reqos|none")
		target  = flag.Float64("target", 0.95, "QoS target in (0,1]")
		settle  = flag.Float64("settle", 8, "settle time before measuring (simulated seconds)")
		measure = flag.Float64("measure", 2, "steady-state measurement window (simulated seconds)")
	)
	flag.Parse()

	sys, err := fleet.SystemByName(*system)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pc3d: %v\n", err)
		os.Exit(2)
	}

	sc := harness.FullScale()
	sc.SettleSeconds = *settle
	sc.MeasureSeconds = *measure
	r := harness.NewRunner(sc)

	// Every RunPair error traces back to a flag (an unknown application, a
	// target outside (0,1], a duration the run cannot honour).
	pr, err := r.RunPair(*host, *ext, sys, *target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pc3d: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("host=%s ext=%s system=%s target=%.0f%%\n", pr.Host, pr.Ext, pr.System, pr.Target*100)
	fmt.Printf("  host utilization:   %.1f%% of solo throughput\n", pr.Utilization*100)
	fmt.Printf("  external QoS:       %.1f%% of solo IPS\n", pr.QoS*100)
	if sys == harness.SystemPC3D {
		fmt.Printf("  runtime cycles:     %.2f%% of server cycles\n", pr.RuntimeFrac*100)
		fmt.Printf("  searches:           %d (variant evals %d, nap probes %d, compiles %d)\n",
			pr.PC3D.Searches, pr.PC3D.VariantEvals, pr.PC3D.NapProbes, pr.PC3D.Compiles)
		fmt.Printf("  dispatched variant: %d non-temporal hints, nap %.2f\n",
			pr.PC3D.BestMaskSize, pr.PC3D.CurrentNap)
	}
}
