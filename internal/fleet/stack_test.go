package fleet

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/supervise"
	"repro/internal/workload"
)

// TestAttachStackRoutesEveryAgent: every agent a stack creates goes through
// Add — that is what lets serverSim.gate switch a migrated instance's whole
// stack off. The Add here records and does NOT forward to the machine, so
// anything registered behind its back would show on the host: a flux probe
// sleeps it, ReQoS naps it, PC3D dispatches variants into its EVT.
func TestAttachStackRoutesEveryAgent(t *testing.T) {
	ext, err := workload.MustByName("web-search").CompilePlain()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		system System
		gated  bool
		agents []string
		source string
	}{
		{SystemPC3D, false, []string{"*qos.FluxMonitor", "*supervise.Supervisor"}, "*qos.FluxMonitor"},
		{SystemPC3D, true, []string{"*qos.ThroughputQoS", "*supervise.Supervisor"}, "*qos.ThroughputQoS"},
		{SystemReQoS, true, []string{"*qos.ThroughputQoS", "*reqos.Controller"}, "*qos.ThroughputQoS"},
		{SystemReQoS, false, []string{"*qos.FluxMonitor", "*reqos.Controller"}, "*qos.FluxMonitor"},
		{SystemNone, false, []string{"*qos.FluxMonitor"}, "*qos.FluxMonitor"},
	} {
		name := fmt.Sprintf("%v gated=%v", tc.system, tc.gated)
		spec := workload.MustByName("libquantum")
		hb, err := spec.CompilePlain()
		if tc.system == SystemPC3D {
			hb, err = spec.CompileProtean()
		}
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(machine.Config{Cores: 4})
		ep, err := m.Attach(0, ext, machine.ProcessConfig{Restart: !tc.gated, Gated: tc.gated})
		if err != nil {
			t.Fatal(err)
		}
		hp, err := m.Attach(1, hb, machine.ProcessConfig{Restart: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := StackConfig{Machine: m, Ext: ep, Host: hp, ExtSoloIPS: 1e9, System: tc.system, Target: 0.95, MaxSites: 2}
		if tc.gated {
			cfg.Gen = loadgen.NewGenerator(ep, loadgen.Constant(0.9), 1e4)
			m.AddAgent(cfg.Gen)
		}
		var got []string
		cfg.Add = func(a machine.Agent) { got = append(got, fmt.Sprintf("%T", a)) }
		st, err := AttachStack(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, tc.agents) {
			t.Errorf("%s: Add saw %v, want %v", name, got, tc.agents)
		}
		if src := fmt.Sprintf("%T", st.Source); src != tc.source {
			t.Errorf("%s: Source is %s, want %s", name, src, tc.source)
		}
		m.RunSeconds(2)
		if c := hp.Counters(); c.NapCycles != 0 || c.SleepCycles != 0 || hp.NapIntensity() != 0 {
			t.Errorf("%s: host napped %d / slept %d cycles (nap %.2f) with no agent forwarded", name, c.NapCycles, c.SleepCycles, hp.NapIntensity())
		}
		if !supervise.AllStatic(hp) {
			t.Errorf("%s: host EVT left static code with no agent forwarded", name)
		}
		if tc.system != SystemPC3D && (st.RuntimeFrac() != 0 || st.Stats().Searches != 0) {
			t.Errorf("%s: runtime share %v, stats %+v without a runtime", name, st.RuntimeFrac(), st.Stats())
		}
		st.Close()
		st.Close()
	}
}
