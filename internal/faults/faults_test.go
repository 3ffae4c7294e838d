package faults

import (
	"math"
	"testing"

	"repro/internal/machine"
)

func TestUniformDeterministicAndWellSpread(t *testing.T) {
	a := uniform(1, domCompile, 3, 4)
	b := uniform(1, domCompile, 3, 4)
	if a != b {
		t.Fatalf("uniform not deterministic: %v vs %v", a, b)
	}
	if uniform(1, domCompile, 3, 5) == a || uniform(2, domCompile, 3, 4) == a {
		t.Fatal("uniform insensitive to key changes")
	}
	// Rough rate check: Bernoulli(p) over many positions lands near p.
	p, n, hits := 0.3, 20000, 0
	for i := 0; i < n; i++ {
		if uniform(7, domCompile, 0, uint64(i)) < p {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-p) > 0.02 {
		t.Errorf("empirical rate %.3f, want ~%.2f", got, p)
	}
}

func TestServerCrashAt(t *testing.T) {
	c := Chaos{Seed: 42, ServerCrashProb: 0.5}
	crashed := 0
	for i := 0; i < 1000; i++ {
		at, ok := c.ServerCrashAt(i, 6.5)
		if ok {
			crashed++
			if at < 0 || at >= 6.5 {
				t.Fatalf("crash time %v outside horizon", at)
			}
			// Same inputs, same schedule.
			at2, ok2 := c.ServerCrashAt(i, 6.5)
			if !ok2 || at2 != at {
				t.Fatal("crash schedule not deterministic")
			}
		}
	}
	if crashed < 400 || crashed > 600 {
		t.Errorf("crashed %d/1000 at p=0.5", crashed)
	}
	if _, ok := (Chaos{Seed: 42}).ServerCrashAt(3, 6.5); ok {
		t.Error("zero-rate chaos crashed a server")
	}
}

func TestCompileFault(t *testing.T) {
	c := Chaos{Seed: 1, CompileFailProb: 0.4}
	f := c.CompileFault(2)
	fails := 0
	for job := uint64(0); job < 1000; job++ {
		err1 := f("hot", job)
		err2 := c.CompileFault(2)("hot", job)
		if (err1 == nil) != (err2 == nil) {
			t.Fatal("compile fault not deterministic")
		}
		if err1 != nil {
			fails++
		}
	}
	if fails < 300 || fails > 500 {
		t.Errorf("fails = %d/1000 at p=0.4", fails)
	}
	if (Chaos{Seed: 1}).CompileFault(2) != nil {
		t.Error("zero-rate chaos returned a compile fault fn")
	}
}

func TestRuntimeCrashFnMeanRate(t *testing.T) {
	c := Chaos{Seed: 3, RuntimeCrashMTTFSeconds: 1}
	freq, quantum := 10e6, uint64(10e3) // 1 ms quanta => p = 1/1000 per quantum
	f := c.RuntimeCrashFn(0, freq, quantum)
	crashes := 0
	for q := uint64(0); q < 100000; q++ {
		if f(q * quantum) {
			crashes++
		}
	}
	// 100 s of simulated time at MTTF 1 s: expect ~100 crash quanta.
	if crashes < 60 || crashes > 150 {
		t.Errorf("crashes = %d over 100s at MTTF 1s", crashes)
	}
}

func TestDropoutFnWindowsAreContiguous(t *testing.T) {
	c := Chaos{Seed: 9, QoSDropoutProb: 0.3, QoSDropoutSeconds: 0.2}
	f := c.DropoutFn(1, 10e6)
	win := uint64(0.2 * 10e6)
	// Every cycle within one window must agree.
	for w := uint64(0); w < 50; w++ {
		first := f(w * win)
		if f(w*win+win/2) != first || f(w*win+win-1) != first {
			t.Fatalf("window %d not contiguous", w)
		}
	}
}

func TestFlakySourceAndWindow(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	constSrc := srcFunc(func() (float64, bool) { return 0.9, true })
	dark := func(uint64) bool { return true }
	fs := &FlakySource{Src: constSrc, M: m, Drop: dark}
	if _, ok := fs.QoS(); ok {
		t.Error("dark dead sensor reported ok")
	}
	fsNaN := &FlakySource{Src: constSrc, M: m, Drop: dark, NaN: true}
	if q, ok := fsNaN.QoS(); !ok || !math.IsNaN(q) {
		t.Errorf("dark NaN sensor = (%v, %v), want (NaN, true)", q, ok)
	}
	clear := &FlakySource{Src: constSrc, M: m, Drop: func(uint64) bool { return false }}
	if q, ok := clear.QoS(); !ok || q != 0.9 {
		t.Errorf("clear sensor = (%v, %v), want (0.9, true)", q, ok)
	}
}

type srcFunc func() (float64, bool)

func (f srcFunc) QoS() (float64, bool) { return f() }
