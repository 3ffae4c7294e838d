package harness

import (
	"reflect"
	"sync"
	"testing"
)

// TestSoloSingleflight hammers a fresh runner's Solo from many
// goroutines: the memo must admit exactly one execution, with every
// caller seeing its result. This is the regression test for the
// check-unlock-run-store race the memo used to have, where concurrent
// callers all missed the cache and ran the experiment redundantly.
func TestSoloSingleflight(t *testing.T) {
	r := NewRunner(BenchScale())
	const callers = 8
	results := make([]SoloRates, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := r.Solo("libquantum")
			if err != nil {
				t.Errorf("Solo: %v", err)
				return
			}
			results[i] = s
		}(i)
	}
	wg.Wait()
	if n := r.soloRuns.Load(); n != 1 {
		t.Errorf("solo experiment executed %d times for %d concurrent callers, want 1", n, callers)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d saw %+v, caller 0 saw %+v", i, results[i], results[0])
		}
	}
}

// TestPairSingleflight does the same for RunPair (no-mitigation system to
// keep it cheap).
func TestPairSingleflight(t *testing.T) {
	r := NewRunner(BenchScale())
	const callers = 4
	results := make([]PairResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pr, err := r.RunPair("libquantum", "web-search", SystemNone, 0.95)
			if err != nil {
				t.Errorf("RunPair: %v", err)
				return
			}
			results[i] = pr
		}(i)
	}
	wg.Wait()
	if n := r.pairRuns.Load(); n != 1 {
		t.Errorf("pair experiment executed %d times for %d concurrent callers, want 1", n, callers)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d saw %+v, caller 0 saw %+v", i, results[i], results[0])
		}
	}
}

// TestParallelFigureMatchesSerial runs the same figure driver serially
// and with a worker pool on fresh runners: every simulated machine is
// independent and seeds are fixed, so the rendered rows must be
// identical, in identical order.
func TestParallelFigureMatchesSerial(t *testing.T) {
	serial := BenchScale()
	serial.Workers = 1
	pooled := BenchScale()
	pooled.Workers = 4

	sTab, err := NewRunner(serial).Figure4()
	if err != nil {
		t.Fatalf("serial Figure4: %v", err)
	}
	pTab, err := NewRunner(pooled).Figure4()
	if err != nil {
		t.Fatalf("parallel Figure4: %v", err)
	}
	if !reflect.DeepEqual(sTab.Rows, pTab.Rows) {
		t.Errorf("Figure 4 rows diverge across worker counts:\nserial:   %v\nparallel: %v", sTab.Rows, pTab.Rows)
	}
}

func TestWorkersClamp(t *testing.T) {
	r := NewRunner(Scale{Workers: 8})
	if got := r.workers(3); got != 3 {
		t.Errorf("workers(3) with pool 8 = %d, want 3", got)
	}
	r = NewRunner(Scale{Workers: 0})
	if got := r.workers(5); got != 1 {
		t.Errorf("workers(5) with pool 0 = %d, want 1", got)
	}
	if DefaultWorkers() < 1 {
		t.Errorf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

// TestTraceSingleflight: Figure 16, figtimeline, figspans and the trace
// summaries all read the same 30-simulated-second runs; one Runner executes
// the PC3D trace once and the ReQoS trace once for the lot. SystemNone is
// rejected before anything runs.
func TestTraceSingleflight(t *testing.T) {
	sc := BenchScale()
	sc.TraceSeconds = 10
	r := NewRunner(sc)
	if _, err := r.SummarizeTrace(SystemNone); err == nil {
		t.Error("trace experiment accepted SystemNone")
	}
	if s, n := r.soloRuns.Load(), r.traceRuns.Load(); s != 0 || n != 0 || len(r.traces.m) != 0 {
		t.Errorf("rejected system still ran %d solos, %d traces, %d memo cells", s, n, len(r.traces.m))
	}
	for name, f := range map[string]func() (*Table, error){
		"Figure16": r.Figure16, "FigureTimeline": r.FigureTimeline, "FigureSpans": r.FigureSpans,
	} {
		if _, err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, sys := range []System{SystemPC3D, SystemReQoS} {
		if _, err := r.SummarizeTrace(sys); err != nil {
			t.Fatalf("SummarizeTrace(%v): %v", sys, err)
		}
	}
	if n := r.traceRuns.Load(); n != 2 {
		t.Errorf("trace experiment executed %d times, want 2 (PC3D once, ReQoS once)", n)
	}
}
