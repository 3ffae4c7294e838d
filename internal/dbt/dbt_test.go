package dbt

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/pcc"
	"repro/internal/workload"
)

// slowdown runs app natively and under the DBT overlay and returns
// native_insts / dbt_insts over the same simulated time.
func slowdown(t *testing.T, app string, cfg *machine.DBTConfig) float64 {
	t.Helper()
	run := func(d *machine.DBTConfig) uint64 {
		spec := workload.MustByName(app)
		bin, err := pcc.Compile(spec.Module(), pcc.Options{})
		if err != nil {
			t.Fatalf("compile %s: %v", app, err)
		}
		m := machine.New(machine.Config{Cores: 1})
		p, err := m.Attach(0, bin, machine.ProcessConfig{Restart: true, DBT: d})
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		m.RunSeconds(1.5)
		return p.Counters().Insts
	}
	return float64(run(nil)) / float64(run(cfg))
}

func TestDynamoRIOOverheadShape(t *testing.T) {
	dr := DynamoRIO()
	// Call/branch-dense programs suffer; memory-bound streamers hide it.
	branchy := slowdown(t, "gobmk", dr)
	streamy := slowdown(t, "lbm", dr)
	if branchy < 1.10 {
		t.Errorf("gobmk slowdown %.3fx; translation should hurt call-dense code", branchy)
	}
	if streamy > branchy {
		t.Errorf("lbm slowdown %.3fx exceeds gobmk's %.3fx; should be hidden by stalls", streamy, branchy)
	}
	if streamy < 1.0 {
		t.Errorf("lbm slowdown %.3fx < 1: overlay sped things up", streamy)
	}
}

func TestDynamoRIOMeanOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the 18-app roster")
	}
	dr := DynamoRIO()
	sum := 0.0
	apps := workload.SPECFig4Apps()
	for _, app := range apps {
		sum += slowdown(t, app, dr)
	}
	mean := sum / float64(len(apps))
	// Figure 4 reports ~18% mean overhead; accept a generous band.
	if mean < 1.08 || mean > 1.35 {
		t.Errorf("mean DynamoRIO slowdown %.3fx, want ~1.18x", mean)
	}
}
