package harness

import (
	"fmt"

	"repro/internal/pcc"
	"repro/internal/progbin"
	"repro/internal/workload"
)

// libquantumVariant compiles libquantum with every load hinted (variant 1)
// or none (variant 0) as a static binary — the offline equivalents of the
// two extreme variants PC3D evaluates online.
func libquantumVariant(allNT bool) (*progbin.Binary, error) {
	mod := workload.MustByName("libquantum").Module()
	if allNT {
		for _, ld := range mod.Loads() {
			ld.NT = true
		}
		if err := mod.Finalize(); err != nil {
			return nil, err
		}
	}
	return pcc.Compile(mod, pcc.Options{})
}

// Figure3 reproduces Figure 3: the performance of libquantum variants 0
// (original) and 1 (fully non-temporal) running with er-naive, as a
// function of the nap intensity applied to libquantum. Each variant's BPS
// is normalized to that variant running alone; er-naive's IPS is
// normalized to its solo IPS.
func (r *Runner) Figure3() (*Table, error) {
	const target = 0.95
	extSolo, err := r.Solo("er-naive")
	if err != nil {
		return nil, err
	}

	type point struct{ perf, qos float64 }
	sweep := func(allNT bool) ([]point, float64, error) {
		bin, err := libquantumVariant(allNT)
		if err != nil {
			return nil, 0, err
		}
		eb, err := workload.Binary("er-naive", false)
		if err != nil {
			return nil, 0, err
		}
		// The variant's own solo BPS.
		sm, sp, err := r.attach(2, bin)
		if err != nil {
			return nil, 0, err
		}
		soloBPS := float64(window(sm, 0.5, r.sc.SoloSeconds, sp...)[0].Branches) / r.sc.SoloSeconds

		var pts []point
		minNap := 1.0
		found := false
		for nap := 0.0; nap <= 1.0001; nap += 0.1 {
			m, ps, err := r.attach(2, eb, bin)
			if err != nil {
				return nil, 0, err
			}
			ps[1].SetNapIntensity(nap)
			d := window(m, 0.5, r.sc.MeasureSeconds, ps...)
			p := point{
				perf: float64(d[1].Branches) / r.sc.MeasureSeconds / soloBPS,
				qos:  float64(d[0].Insts) / r.sc.MeasureSeconds / extSolo.IPS,
			}
			pts = append(pts, p)
			if !found && p.qos >= target {
				minNap = nap
				found = true
			}
		}
		return pts, minNap, nil
	}

	v0, nap0, err := sweep(false)
	if err != nil {
		return nil, err
	}
	v1, nap1, err := sweep(true)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "Figure 3",
		Title: "Online empirical evaluation for two variants of libquantum running with er-naive",
		Columns: []string{
			"Nap Intensity",
			"v0 app BPS", "v0 co-runner QoS", "v0 QoS met",
			"v1 app BPS", "v1 co-runner QoS", "v1 QoS met",
		},
	}
	for i := range v0 {
		nap := float64(i) * 0.1
		t.AddRow(pct(nap),
			pct(v0[i].perf), pct(v0[i].qos), met(v0[i].qos >= target),
			pct(v1[i].perf), pct(v1[i].qos), met(v1[i].qos >= target))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("minimum nap meeting the %d%% target: variant 0 needs %s, variant 1 needs %s (paper: 99%% vs 23%%)",
			int(target*100), pct(nap0), pct(nap1)),
		"performance monotonically falls with nap intensity for both programs, enabling the binary search of Algorithm 2")
	return t, nil
}

func met(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
