package fleet

import (
	"math"
	"testing"

	"repro/internal/datacenter"
	"repro/internal/telemetry"
)

// TestReadingBanksDepartedHost: instructions a batch instance retires
// before it departs still count in the next reading, so the MPKI across a
// migration divides by webservice plus every batch instruction retired
// since the last barrier.
func TestReadingBanksDepartedHost(t *testing.T) {
	f, err := New(Config{
		Servers: 1, Webservice: "web-search", System: SystemNone, Seed: 1, Workers: 1,
		Mix:         datacenter.Mix{Name: "test", Apps: []string{"milc"}},
		SoloSeconds: 0.1, SettleSeconds: 0.5, MeasureSeconds: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.calibrate([]string{"milc"}); err != nil {
		t.Fatal(err)
	}
	f.serverTel = make([]*telemetry.Registry, 1)
	s, err := newServerSim(f, 0, "milc", math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	s.runUntil(0.1)
	s.read()
	s.runUntil(0.2)
	k := s.host.Counters().Insts - s.cur.hostInsts
	if k == 0 {
		t.Fatal("batch instance retired nothing between the reads")
	}
	if s.detachInstance() != "milc" {
		t.Fatal("no instance detached")
	}
	s.read()
	if got := s.cur.hostInsts - s.prev.hostInsts; got != k {
		t.Fatalf("reading banked %d batch instructions across the detach, want %d", got, k)
	}
	dws := s.cur.ws.Sub(s.prev.ws)
	want := 1000 * float64(s.cur.llc-s.prev.llc) / float64(dws.Insts+k)
	if got := s.contendSample(); !got.Valid || got.MPKI != want {
		t.Fatalf("sample %+v, want valid with MPKI %v", got, want)
	}
}
