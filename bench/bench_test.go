package main

import (
	"io"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced, and one traced,
// and holds what they print to BENCHMARK.json: exactly its end-to-end
// metrics untraced, exactly its per-layer metrics traced, with its units,
// and no failed operation.
func TestSmoke(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(mf.Workloads), len(workloads))
	}
	check := func(t *testing.T, o options, want []manifestMetric) {
		t.Helper()
		rep, err := run(o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rep.Metrics[m.Name]
			if !ok {
				t.Errorf("metric %s missing", m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, mf.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			check(t, options{workload: w.name, seed: 1, smoke: true}, mf.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		check(t, options{workload: "engine-mix", seed: 2, smoke: true, trace: true}, mf.PerLayer)
	})
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", smoke: true}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
