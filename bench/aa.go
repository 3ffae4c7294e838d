package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the A/A mode and the tests read:
// the metric names, their direction and their regression bounds, so that
// they are written down once.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runAA runs every workload as two interleaved sets (A B A B ...) of runs,
// each run a fresh process of this binary so that peak RSS means
// something, and prints per workload and metric how far set B's median is
// on the worse side of set A's, beside the bound BENCHMARK.json fixes,
// with each set's quartiles. Both sets run the same code, so a gap in
// either direction is a repeatability failure: the verdict holds the gap,
// as a share of the smaller median, to the bound. It returns the exit code:
// 1 if any bound is exceeded or any run failed.
func runAA(o options, runs int, manifestPath string) int {
	if runs < 3 {
		runs = 3
	}
	mf, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa:", err)
		return 1
	}
	exit := 0
	fmt.Printf("A/A: two interleaved sets of %d runs, seed %d, %.0f s each\n", runs, o.seed, o.seconds)
	fmt.Printf("%-13s %-12s %9s %7s  %-32s %-32s\n", "workload", "metric", "B vs A", "bound", "A median [q1, q3]", "B median [q1, q3]")
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runs; i++ {
			rep, err := runChild(self, w.name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: -aa: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			if !rep.Correct {
				fmt.Printf("%-13s run %d: %d of %d operations failed\n", w.name, i, rep.Failed, rep.Attempted)
				exit = 1
			}
			for name, m := range rep.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		for _, m := range mf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(mb-ma)/math.Min(ma, mb) > m.Bound {
				verdict = "  EXCEEDS BOUND"
				exit = 1
			}
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			fmt.Printf("%-13s %-12s %+8.2f%% %6.0f%%  %-32s %-32s%s\n", w.name, m.Name, 100*worse, 100*m.Bound,
				fmt.Sprintf("%.5g [%.5g, %.5g]", ma, aq1, aq3), fmt.Sprintf("%.5g [%.5g, %.5g]", mb, bq1, bq3), verdict)
		}
	}
	return exit
}

// runChild runs one untraced benchmark process and parses the report on
// the last line of its output.
func runChild(self, workload string, o options) (*report, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0"}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("parse report: %w", err)
	}
	return &rep, nil
}
