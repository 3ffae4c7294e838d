package harness

import (
	"reflect"
	"testing"

	"repro/internal/datacenter"
	"repro/internal/fleet"
	"repro/internal/ir/irtext"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestSharedArtefactsPristine runs a PC3D fleet on two workers and a PC3D
// co-location pair, both of which search the shared IR, then holds every
// binary they attached, and its shared IR, to a fresh compile: no run
// writes through workload.Binary or Binary.IR.
func TestSharedArtefactsPristine(t *testing.T) {
	mix, _ := datacenter.MixByName("WL2")
	tel := telemetry.New(telemetry.Config{})
	f, err := fleet.New(fleet.Config{
		Servers: 2, Webservice: "web-search", Mix: mix, System: fleet.SystemPC3D,
		Seed: 1, Workers: 2, SoloSeconds: 0.3, SettleSeconds: 1, MeasureSeconds: 0.3,
		MaxSites: 3, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if n := tel.CounterValue("pc3d", "searches_total"); n == 0 {
		t.Fatal("the fleet ran no PC3D search")
	}
	r := NewRunner(Scale{Name: "pristine", SoloSeconds: 0.3, SettleSeconds: 1, MeasureSeconds: 0.3, MaxSites: 3})
	pr, err := r.RunPair("libquantum", "web-search", SystemPC3D, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if pr.PC3D.Searches == 0 {
		t.Fatal("the pair ran no PC3D search")
	}

	used := []struct {
		app     string
		protean bool
	}{
		{"web-search", false},
		{"soplex", false}, {"soplex", true},
		{"bst", false}, {"bst", true},
		{"libquantum", false}, {"libquantum", true},
	}
	for _, u := range used {
		shared, err := workload.Binary(u.app, u.protean)
		if err != nil {
			t.Fatal(err)
		}
		spec := workload.MustByName(u.app)
		compile := spec.CompilePlain
		if u.protean {
			compile = spec.CompileProtean
		}
		fresh, err := compile()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared.Program, fresh.Program) || shared.Protean != fresh.Protean ||
			!reflect.DeepEqual(shared.IRBlob, fresh.IRBlob) {
			t.Errorf("%s (protean %v): the shared binary differs from a fresh compile", u.app, u.protean)
		}
		if !u.protean {
			continue
		}
		sharedIR, err := shared.IR()
		if err != nil {
			t.Fatal(err)
		}
		freshIR, err := fresh.DecodeIR()
		if err != nil {
			t.Fatal(err)
		}
		if irtext.String(sharedIR) != irtext.String(freshIR) {
			t.Errorf("%s: the shared IR differs from a fresh decode", u.app)
		}
	}
}
