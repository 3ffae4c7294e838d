package harness

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pc3d"
	"repro/internal/pcc"
	"repro/internal/pcsp"
	"repro/internal/phase"
	"repro/internal/progbin"
	"repro/internal/qos"
	"repro/internal/workload"
)

// The ablations behind DESIGN §4 and EXPERIMENTS.md "Ablations". Every
// quantity is a deterministic simulated count, so each test pins both the
// ordering the design argument needs and the value the docs quote, at the
// precision they quote it: a change that moves one fails here and names the
// sentence to update. `go test ./internal/harness -run Ablation -v` prints
// the rows.

// pin fails unless got, rendered with format, is exactly want.
func pin(t *testing.T, what, format string, got float64, want string) {
	t.Helper()
	if s := fmt.Sprintf(format, got); s != want {
		t.Errorf("%s = %s, docs quote %s", what, s, want)
	}
}

func mustAttach(t *testing.T, cores int, bins ...*progbin.Binary) (*machine.Machine, []*machine.Process) {
	t.Helper()
	m, ps, err := shared.attach(cores, bins...)
	if err != nil {
		t.Fatal(err)
	}
	return m, ps
}

func mustBinary(t *testing.T, name string, protean bool) *progbin.Binary {
	t.Helper()
	b, err := workload.Binary(name, protean)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAblationEdgePolicy: the virtualization-policy choice. The paper
// virtualizes calls to multi-block callees only; on gobmk (call-heavy)
// virtualizing every call costs nothing measurable and virtualizing none
// buys 1.1% — EVT indirection is near-free whichever edges take it.
func TestAblationEdgePolicy(t *testing.T) {
	insts := func(policy pcc.EdgePolicy) float64 {
		bin, err := pcc.Compile(workload.MustByName("gobmk").Module(), pcc.Options{Protean: true, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		m, ps := mustAttach(t, 1, bin)
		m.RunSeconds(1)
		return float64(ps[0].Counters().Insts)
	}
	multi := insts(pcc.MultiBlockCallees)
	all, none := insts(pcc.AllCalls)/multi, insts(pcc.NoEdges)/multi
	t.Logf("gobmk insts vs multi-block: all-calls %.3f, no-edges %.3f", all, none)
	pin(t, "all-calls / multi-block", "%.3f", all, "1.000")
	pin(t, "no-edges / multi-block", "%.3f", none, "1.011")
	if !(all <= 1.0005 && none > all) {
		t.Errorf("want all-calls <= multi-block < no-edges in retired instructions; got ratios %.4f, %.4f", all, none)
	}
}

// TestAblationNTPolicy: the shared-LLC non-temporal policy, bypass
// (default) versus LRU-insertion demotion, for an all-hints libquantum
// against er-naive. Both restore the victim completely; the host's
// throughput relative to its unhinted co-located self is what they trade.
func TestAblationNTPolicy(t *testing.T) {
	victimBin := mustBinary(t, "er-naive", false)
	run := func(pol cache.NTPolicy) (victimQoS, hostSelfPerf float64) {
		hier := cache.DefaultHierarchy(2)
		hier.LLC.NT = pol
		// counts runs bins for 1.5 s and returns (core-0 insts, last core's branches).
		counts := func(bins ...*progbin.Binary) (float64, float64) {
			m := machine.New(machine.Config{Cores: 2, Hierarchy: hier})
			var ps []*machine.Process
			for i, b := range bins {
				p, err := m.Attach(i, b, machine.ProcessConfig{Restart: true})
				if err != nil {
					t.Fatal(err)
				}
				ps = append(ps, p)
			}
			m.RunSeconds(1.5)
			return float64(ps[0].Counters().Insts), float64(ps[len(ps)-1].Counters().Branches)
		}
		plain, err := libquantumVariant(false)
		if err != nil {
			t.Fatal(err)
		}
		hinted, err := libquantumVariant(true)
		if err != nil {
			t.Fatal(err)
		}
		solo, _ := counts(victimBin)
		_, hPlain := counts(victimBin, plain)
		vNT, hNT := counts(victimBin, hinted)
		return vNT / solo, hNT / hPlain
	}
	vBypass, hBypass := run(cache.NTBypass)
	vDemote, hDemote := run(cache.NTDemote)
	t.Logf("victim QoS bypass %.3f demote %.3f; host self-performance bypass %.3f demote %.3f",
		vBypass, vDemote, hBypass, hDemote)
	pin(t, "victim QoS (bypass)", "%.3f", vBypass, "1.000")
	pin(t, "victim QoS (demote)", "%.3f", vDemote, "1.000")
	pin(t, "host self-performance (bypass)", "%.3f", hBypass, "0.719")
	pin(t, "host self-performance (demote)", "%.3f", hDemote, "0.724")
	if !(hBypass < hDemote) {
		t.Errorf("demote should be marginally cheaper for the host: bypass %.4f, demote %.4f", hBypass, hDemote)
	}
}

// TestAblationSearchBounds: Algorithm 1 with and without its nap-bound
// reuse, by the nap probes each needs to converge on libquantum vs
// er-naive. This is the one stack wired by hand: NoBoundsReuse exists for
// this test only, so fleet.StackConfig does not carry it.
func TestAblationSearchBounds(t *testing.T) {
	extSolo, err := shared.Solo("er-naive")
	if err != nil {
		t.Fatal(err)
	}
	probes := func(noBounds bool) int {
		m, ps := mustAttach(t, 4, mustBinary(t, "er-naive", false), mustBinary(t, "libquantum", true))
		ep, hp := ps[0], ps[1]
		rt, err := core.New(core.Config{Machine: m, Host: hp, RuntimeCore: 2})
		if err != nil {
			t.Fatal(err)
		}
		m.AddAgent(rt)
		flux := qos.NewFluxMonitor(m, hp, ep, 0, 0)
		flux.ReferenceIPS = extSolo.IPS
		m.AddAgent(flux)
		ctrl := pc3d.New(pc3d.Config{
			Runtime: rt, Steady: flux, Window: &qos.FluxWindow{Flux: flux, Ext: ep},
			ExtSig: func(*machine.Machine) phase.Signature {
				solo, _ := flux.SoloIPS()
				return phase.Signature{Rate: solo}
			},
			Target: 0.95, MaxSites: 6, NoBoundsReuse: noBounds,
		})
		defer ctrl.Close()
		m.AddAgent(ctrl)
		m.RunSeconds(8)
		return ctrl.Stats().NapProbes
	}
	with, without := probes(false), probes(true)
	t.Logf("nap probes to converge: %d with bound reuse, %d without", with, without)
	if with != 16 || without != 23 {
		t.Errorf("nap probes = %d with reuse, %d without; docs quote 16 and 23", with, without)
	}
	if !(with < without) {
		t.Errorf("bound reuse should save probes: %d vs %d", with, without)
	}
}

// TestAblationFluxCadence: the flux probe period versus the sleep it
// imposes on the host (probes are 4 ms; the paper picks 40 ms every 4 s
// for ~1%).
func TestAblationFluxCadence(t *testing.T) {
	overhead := func(periodMS uint64) float64 {
		m, ps := mustAttach(t, 2, mustBinary(t, "er-naive", false), mustBinary(t, "libquantum", false))
		ms := uint64(m.Config().FreqHz / 1000)
		m.AddAgent(qos.NewFluxMonitor(m, ps[1], ps[0], periodMS*ms, 4*ms))
		m.RunSeconds(3)
		c := ps[1].Counters()
		return 100 * float64(c.SleepCycles) / float64(c.Cycles)
	}
	prev := 100.0
	for _, tc := range []struct {
		periodMS uint64
		want     string
	}{{100, "3.87"}, {400, "0.93"}, {1600, "0.13"}} {
		pctSlept := overhead(tc.periodMS)
		t.Logf("flux probe every %d ms: host sleeps %.2f%%", tc.periodMS, pctSlept)
		pin(t, fmt.Sprintf("probe overhead %% at %d ms", tc.periodMS), "%.2f", pctSlept, tc.want)
		if !(pctSlept < prev) {
			t.Errorf("overhead should fall as the period grows: %.3f%% at %d ms after %.3f%%", pctSlept, tc.periodMS, prev)
		}
		prev = pctSlept
	}
}

// TestAblationPrefetchLead: PCSP's best per-function gain on lbm across
// lead distances. It is flat because simulated fills are instantaneous
// (EXPERIMENTS.md deviation list); PCSP appears in no corpus artifact, so
// these are its only pinned numbers.
func TestAblationPrefetchLead(t *testing.T) {
	gain := func(iters int64) float64 {
		m, ps := mustAttach(t, 2, mustBinary(t, "lbm", true))
		rt, err := core.New(core.Config{Machine: m, Host: ps[0], RuntimeCore: 1})
		if err != nil {
			t.Fatal(err)
		}
		m.AddAgent(rt)
		ctrl := pcsp.New(pcsp.Config{Runtime: rt, LeadIters: []int64{iters}, MaxFuncs: 2})
		defer ctrl.Close()
		m.AddAgent(ctrl)
		m.RunSeconds(2.5)
		best := 0.0
		for _, r := range ctrl.Results() {
			best = max(best, r.Gain)
		}
		return 100 * best
	}
	lo, hi := 100.0, 0.0
	for _, tc := range []struct {
		iters int64
		want  string
	}{{1, "92.7"}, {4, "92.6"}, {16, "92.3"}, {64, "91.6"}} {
		g := gain(tc.iters)
		t.Logf("PCSP lead %d iterations: best gain %.1f%%", tc.iters, g)
		pin(t, fmt.Sprintf("PCSP gain %% at lead %d", tc.iters), "%.1f", g, tc.want)
		lo, hi = min(lo, g), max(hi, g)
	}
	if hi-lo >= 2 {
		t.Errorf("lead-distance gains spread %.2f points (%.1f..%.1f), want < 2: fills are instantaneous", hi-lo, lo, hi)
	}
}
