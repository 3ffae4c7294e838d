package sampling

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/machine"
)

func buildDeep() *DeepProfile {
	d := NewDeepProfile()
	d.Add("heavy", "loop_body", 0, 70)
	d.Add("heavy", "loop_head", -1, 20)
	d.Add("heavy", "", -1, 10) // block-unattributed remainder
	d.Add("light", "entry", 3, 5)
	d.Add("", "ignored", 0, 9) // empty function: dropped
	d.Add("zero", "b", 0, 0)   // zero count: dropped
	return d
}

func TestDeepProfileAccounting(t *testing.T) {
	d := buildDeep()
	if d.Total() != 105 {
		t.Errorf("Total = %d, want 105", d.Total())
	}
	if d.Funcs["heavy"].Samples != 100 || d.BlockSamples("heavy", "loop_body") != 70 {
		t.Error("per-function/per-block counts wrong")
	}
	if d.Funcs["heavy"].Sites[0] != 70 || d.Funcs["light"].Sites[3] != 5 {
		t.Error("per-site counts wrong")
	}
	flat := d.Flat()
	if flat["heavy"] != 100 || flat["light"] != 5 || len(flat) != 2 {
		t.Errorf("Flat = %v", flat)
	}
	if _, ok := d.Funcs["zero"]; ok {
		t.Error("zero-count Add created a function entry")
	}
}

func TestDeepProfileCloneAndMerge(t *testing.T) {
	d := buildDeep()
	c := d.Clone()
	c.Add("heavy", "loop_body", 0, 1000)
	if d.BlockSamples("heavy", "loop_body") != 70 {
		t.Error("Clone aliases original maps")
	}
	m := NewDeepProfile()
	m.Merge(d)
	m.Merge(d)
	if m.Total() != 2*d.Total() || m.BlockSamples("heavy", "loop_head") != 40 {
		t.Error("Merge did not sum counts")
	}
	m.Merge(nil) // nil-safe
	if m.Total() != 2*d.Total() {
		t.Error("nil Merge changed counts")
	}
}

func TestProfileDeepLift(t *testing.T) {
	d := Profile{"a": 7, "b": 3}.Deep()
	if d.Total() != 10 || d.Funcs["a"].Samples != 7 {
		t.Error("lift lost counts")
	}
	if len(d.Funcs["a"].Blocks) != 0 || len(d.Funcs["a"].Sites) != 0 {
		t.Error("flat lift invented block/site attribution")
	}
}

// foldedLine is the speedscope/flamegraph.pl collapsed-stack grammar: one
// or more ;-separated non-empty frames, a single space, a positive count.
var foldedLine = regexp.MustCompile(`^[^; ]+(;[^; ]+)* \d+$`)

// folded renders WriteFolded to a string.
func folded(d *DeepProfile, app string) string {
	var sb strings.Builder
	_ = d.WriteFolded(&sb, app) // strings.Builder never errors
	return sb.String()
}

func TestFoldedStacksSpeedscopeShape(t *testing.T) {
	d := buildDeep()
	out := folded(d, "app")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out)
	}
	var total uint64
	for _, ln := range lines {
		if !foldedLine.MatchString(ln) {
			t.Errorf("line %q is not valid folded-stack syntax", ln)
		}
		if !strings.HasPrefix(ln, "app;") {
			t.Errorf("line %q missing app frame", ln)
		}
		n, err := strconv.ParseUint(ln[strings.LastIndexByte(ln, ' ')+1:], 10, 64)
		if err != nil {
			t.Errorf("line %q count: %v", ln, err)
		}
		total += n
	}
	if total != d.Total() {
		t.Errorf("folded counts sum to %d, want %d (no samples lost)", total, d.Total())
	}
	// Deterministic order: hottest function first, hottest block first,
	// remainder after the function's block lines.
	want := "app;heavy;loop_body 70\napp;heavy;loop_head 20\napp;heavy 10\napp;light;entry 5\n"
	if out != want {
		t.Errorf("folded output:\n%s\nwant:\n%s", out, want)
	}
	// Empty app drops the leading frame.
	if !strings.HasPrefix(folded(d, ""), "heavy;loop_body 70\n") {
		t.Error("empty app still prefixed")
	}
}

func TestWritePprofRawShape(t *testing.T) {
	d := buildDeep()
	var sb strings.Builder
	if err := d.WritePprofRaw(&sb, 5000); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"PeriodType: cpu cycles",
		"Period: 5000",
		"samples/count cpu/cycles",
		"Locations",
		"Mappings",
		"heavy;loop_body",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The hottest sample line: 70 samples × 5000 cycles, block loc then
	// func loc (leaf-first stack).
	if !strings.Contains(out, "        70     350000: 2 1\n") {
		t.Errorf("hottest sample record missing:\n%s", out)
	}
	// Deterministic across calls.
	var sb2 strings.Builder
	_ = d.WritePprofRaw(&sb2, 5000)
	if sb2.String() != out {
		t.Error("pprof-raw export not deterministic")
	}
}

// TestSamplerBlockAttribution: the machine-integration half — samples from
// a real simulated process carry block names and load sites.
func TestSamplerBlockAttribution(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	p, err := m.Attach(0, twoHotFuncs(t), machine.ProcessConfig{Restart: true})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	s := NewPCSampler(p, m.Config().QuantumCycles)
	m.AddAgent(s)
	m.RunQuanta(2000)

	deep := s.DeepLifetime()
	// The window was never reset, so it counts every sample taken.
	if taken := s.Window().Total(); deep.Total() != taken {
		t.Errorf("deep total %d != samples taken %d", deep.Total(), taken)
	}
	hf := deep.Funcs["heavy"]
	if hf == nil || len(hf.Blocks) == 0 {
		t.Fatal("no block attribution for the hot function")
	}
	var blockSum uint64
	for _, n := range hf.Blocks {
		blockSum += n
	}
	if blockSum != hf.Samples {
		t.Errorf("heavy: blocks sum %d != samples %d (protean binaries carry full block tables)", blockSum, hf.Samples)
	}
	if len(hf.Sites) == 0 {
		t.Error("no load-site attribution despite a load-heavy loop")
	}
}
