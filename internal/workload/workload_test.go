package workload

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/progbin"
)

func TestCatalogBuildsAndCompiles(t *testing.T) {
	for _, s := range Catalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m := s.Module()
			if err := m.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if m.Name != s.Name {
				t.Errorf("module name %q != spec name %q", m.Name, s.Name)
			}
			bin, err := s.CompileProtean()
			if err != nil {
				t.Fatalf("CompileProtean: %v", err)
			}
			if !bin.Protean || !bin.HasIR() {
				t.Error("protean compile lacks metadata")
			}
			plain, err := s.CompilePlain()
			if err != nil {
				t.Fatalf("CompilePlain: %v", err)
			}
			// isa.Lower writes each text once, into an array of exactly
			// its length.
			for _, b := range []*progbin.Binary{bin, plain} {
				if code := b.Program.Code; cap(code) != len(code) {
					t.Errorf("protean %v: text capacity %d for %d instructions", b.Protean, cap(code), len(code))
				}
			}
			// Embedded IR round-trips.
			emb, err := bin.DecodeIR()
			if err != nil {
				t.Fatalf("DecodeIR: %v", err)
			}
			if emb.NumLoads != m.NumLoads {
				t.Errorf("embedded NumLoads %d != %d", emb.NumLoads, m.NumLoads)
			}
		})
	}
}

// Figure 8 reports the absolute static load counts of the ten batch hosts;
// the generator must reproduce them.
func TestStaticLoadCountsMatchFigure8(t *testing.T) {
	want := map[string]int{
		"blockie": 64, "bst": 70, "er-naive": 25, "sledge": 35,
		"bzip2": 2582, "milc": 3632, "soplex": 15666,
		"libquantum": 636, "lbm": 257, "sphinx3": 4963,
	}
	for name, n := range want {
		if got := MustByName(name).Module().NumLoads; got != n {
			t.Errorf("%s: built module has %d static loads, want %d", name, got, n)
		}
	}
}

func TestBatchHostsAndWebservicesExist(t *testing.T) {
	if len(BatchHosts()) != 10 {
		t.Fatalf("BatchHosts = %d entries, want 10", len(BatchHosts()))
	}
	for _, n := range BatchHosts() {
		s := MustByName(n)
		if s.Class != Batch {
			t.Errorf("%s: class %v, want Batch", n, s.Class)
		}
	}
	for _, n := range Webservices() {
		s := MustByName(n)
		if s.Class != LatencySensitive {
			t.Errorf("%s: class %v, want LatencySensitive", n, s.Class)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted unknown app")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic")
		}
	}()
	MustByName("nope")
}

// TestBinaryShared holds Binary to one compile per (app, mode), and a
// protean binary's IR to one decode, however many goroutines ask at once
// (run with -race), and Binary to an error, not a panic, for an unknown
// app.
func TestBinaryShared(t *testing.T) {
	apps := []string{"bst", "libquantum", "web-search"}
	const workers = 8
	bins := make([][]*progbin.Binary, workers)
	mods := make([][]*ir.Module, workers)
	var wg sync.WaitGroup
	for w := range bins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range apps {
				for _, protean := range []bool{false, true} {
					b, err := Binary(a, protean)
					if err != nil {
						t.Errorf("Binary(%q, %v): %v", a, protean, err)
						return
					}
					bins[w] = append(bins[w], b)
					if protean {
						m, err := b.IR()
						if err != nil {
							t.Errorf("%s: IR: %v", a, err)
						}
						mods[w] = append(mods[w], m)
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		if !slices.Equal(bins[w], bins[0]) || !slices.Equal(mods[w], mods[0]) {
			t.Errorf("goroutine %d saw a second compile or decode", w)
		}
	}
	for i, b := range bins[0] {
		if b == nil || b.Protean != (i%2 == 1) {
			t.Errorf("binary %d: %+v, want protean = %v", i, b, i%2 == 1)
		}
	}
	if _, err := Binary("nope", true); err == nil {
		t.Error("Binary accepted an unknown app")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names(Batch)
	if len(names) != 19 {
		t.Fatalf("Names(Batch) = %d, want 19 (10 hosts + 9 extra SPEC)", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

// Cold code must never execute; hot functions must dominate samples.
func TestColdCodeNeverExecutes(t *testing.T) {
	s := MustByName("libquantum")
	bin, err := s.CompileProtean()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := machine.New(machine.Config{Cores: 1})
	p, _ := m.Attach(0, bin, machine.ProcessConfig{Restart: true})
	m.RunQuanta(300)
	if p.Counters().Insts == 0 {
		t.Fatal("no progress")
	}
	fn := p.CurrentFunc()
	if fn == "" {
		t.Fatal("PC not attributable")
	}
	// Verify via dynamic load counts: a work unit executes
	// toffoli (8*150*8) + sigma_x (6*150*8) loads; cold functions would
	// add thousands more per unit. Check loads per completion is in the
	// expected band.
	c := p.Counters()
	if c.Completions == 0 {
		t.Skip("no full unit completed in window")
	}
	perUnit := float64(c.Loads) / float64(c.Completions)
	want := float64(8*150*8 + 6*150*8)
	if perUnit < want*0.9 || perUnit > want*1.2 {
		t.Errorf("loads per unit = %.0f, want ~%.0f (cold code executing?)", perUnit, want)
	}
}

// The innermost-loop loads must sit at max loop depth and the shallow
// loads must not — the structure PC3D's heuristics rely on.
func TestLoadDepthStructure(t *testing.T) {
	s := MustByName("libquantum")
	m := s.Module()
	hotLoads := 0
	for _, f := range m.Funcs {
		if f.Name != "toffoli" && f.Name != "sigma_x" {
			continue
		}
		lf := ir.BuildLoopForest(f)
		if lf.MaxDepth != 2 {
			t.Errorf("%s: MaxDepth = %d, want 2", f.Name, lf.MaxDepth)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if _, ok := in.(*ir.Load); !ok {
					continue
				}
				if lf.AtMaxDepth(b.Index) {
					hotLoads++
				}
			}
		}
	}
	if hotLoads != 14 {
		t.Errorf("innermost loads = %d, want 14 (8 toffoli + 6 sigma_x)", hotLoads)
	}
}

// Relative contentiousness must be ordered: the heavy streamers hurt a
// sensitive co-runner much more than the compute-bound app.
func TestContentiousnessSpectrum(t *testing.T) {
	victim := MustByName("er-naive")
	qosAgainst := func(host string) float64 {
		solo := machine.New(machine.Config{Cores: 2})
		vb, _ := victim.CompilePlain()
		vp, _ := solo.Attach(0, vb, machine.ProcessConfig{Restart: true})
		solo.RunQuanta(1500)
		soloInsts := float64(vp.Counters().Insts)

		co := machine.New(machine.Config{Cores: 2})
		vb2, _ := victim.CompilePlain()
		vp2, _ := co.Attach(0, vb2, machine.ProcessConfig{Restart: true})
		hb, err := MustByName(host).CompilePlain()
		if err != nil {
			t.Fatalf("compile %s: %v", host, err)
		}
		if _, err := co.Attach(1, hb, machine.ProcessConfig{Restart: true}); err != nil {
			t.Fatalf("attach %s: %v", host, err)
		}
		co.RunQuanta(1500)
		return float64(vp2.Counters().Insts) / soloInsts
	}
	lbm := qosAgainst("lbm")
	bzip2 := qosAgainst("bzip2")
	if lbm >= bzip2 {
		t.Errorf("lbm QoS impact (%.3f) should exceed bzip2's (%.3f)", lbm, bzip2)
	}
	if bzip2 < 0.85 {
		t.Errorf("bzip2 (compute-bound) degrades victim to %.3f; too contentious", bzip2)
	}
	if lbm > 0.8 {
		t.Errorf("lbm (heavy streamer) only degrades victim to %.3f; too gentle", lbm)
	}
}

func TestLatencySensitiveServesRequests(t *testing.T) {
	for _, name := range Webservices() {
		s := MustByName(name)
		bin, err := s.CompilePlain()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		m := machine.New(machine.Config{Cores: 1})
		p, _ := m.Attach(0, bin, s.ProcessConfig())
		p.GrantWork(100)
		m.RunQuanta(500)
		served := p.Counters().Completions
		if served != 100 {
			t.Errorf("%s: served %d of 100 requests", name, served)
		}
		if p.Counters().IdleCycles == 0 {
			t.Errorf("%s: no idle after draining budget", name)
		}
	}
}

func TestSPECFig4Roster(t *testing.T) {
	apps := SPECFig4Apps()
	if len(apps) != 18 {
		t.Fatalf("roster has %d apps, want 18", len(apps))
	}
	for _, n := range apps {
		s := MustByName(n)
		if s.Suite != "SPEC CPU2006" {
			t.Errorf("%s: suite %q", n, s.Suite)
		}
		if _, err := s.CompileProtean(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}
