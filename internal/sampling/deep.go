package sampling

import (
	"fmt"
	"io"
	"sort"
)

// FuncProfile is one function's sample breakdown inside a DeepProfile.
type FuncProfile struct {
	// Samples is the function's total sample count (including samples that
	// could not be attributed to a block, e.g. from binaries without block
	// tables).
	Samples uint64
	// Blocks counts samples per basic-block name. Variant code keeps the
	// original block names, so variants aggregate with their static code.
	Blocks map[string]uint64
	// Sites counts samples whose PC was a load instruction, per static IR
	// load ID — the per-site attribution PC3D's block ranking refines.
	Sites map[int]uint64
}

// DeepProfile is a hierarchical PC profile: function → block → sample
// count, with per-load-site attribution retained for sampled load PCs. It
// is the block-granular refinement of the flat Profile and feeds the
// folded-stack / pprof-raw exporters and PC3D's block-hotness ordering.
type DeepProfile struct {
	Funcs map[string]*FuncProfile
}

// NewDeepProfile returns an empty profile.
func NewDeepProfile() *DeepProfile {
	return &DeepProfile{Funcs: make(map[string]*FuncProfile)}
}

func (d *DeepProfile) fp(fn string) *FuncProfile {
	f := d.Funcs[fn]
	if f == nil {
		f = &FuncProfile{Blocks: make(map[string]uint64), Sites: make(map[int]uint64)}
		d.Funcs[fn] = f
	}
	return f
}

// Add records n samples attributed to (fn, block, loadID). An empty block
// records function-granularity samples only; loadID < 0 records no site.
func (d *DeepProfile) Add(fn, block string, loadID int, n uint64) {
	if fn == "" || n == 0 {
		return
	}
	f := d.fp(fn)
	f.Samples += n
	if block != "" {
		f.Blocks[block] += n
	}
	if loadID >= 0 {
		f.Sites[loadID] += n
	}
}

// Total sums all samples.
func (d *DeepProfile) Total() uint64 {
	var t uint64
	for _, f := range d.Funcs {
		t += f.Samples
	}
	return t
}

// Flat projects the profile down to the function→count Profile the
// phase-detection and coverage heuristics consume.
func (d *DeepProfile) Flat() Profile {
	out := make(Profile, len(d.Funcs))
	for fn, f := range d.Funcs {
		if f.Samples > 0 {
			out[fn] = f.Samples
		}
	}
	return out
}

// BlockSamples returns the sample count of one basic block.
func (d *DeepProfile) BlockSamples(fn, block string) uint64 {
	if f := d.Funcs[fn]; f != nil {
		return f.Blocks[block]
	}
	return 0
}

// Clone deep-copies the profile.
func (d *DeepProfile) Clone() *DeepProfile {
	out := NewDeepProfile()
	for fn, f := range d.Funcs {
		nf := out.fp(fn)
		nf.Samples = f.Samples
		for b, n := range f.Blocks {
			nf.Blocks[b] = n
		}
		for id, n := range f.Sites {
			nf.Sites[id] = n
		}
	}
	return out
}

// Merge adds src's counts into d. Merging per-server profiles in
// server-index order keeps the aggregate independent of worker
// interleaving (counts are commutative, but fixed order costs nothing and
// matches the telemetry rollup discipline).
func (d *DeepProfile) Merge(src *DeepProfile) {
	if src == nil {
		return
	}
	for fn, f := range src.Funcs {
		nf := d.fp(fn)
		nf.Samples += f.Samples
		for b, n := range f.Blocks {
			nf.Blocks[b] += n
		}
		for id, n := range f.Sites {
			nf.Sites[id] += n
		}
	}
}

// Deep lifts a flat function profile into a DeepProfile with no block or
// site attribution — the compatibility shim for profile sources that
// predate block tables.
func (p Profile) Deep() *DeepProfile {
	d := NewDeepProfile()
	for fn, n := range p {
		d.Add(fn, "", -1, n)
	}
	return d
}

// sortedFuncs returns function names in deterministic order: descending
// sample count, ties by name.
func (d *DeepProfile) sortedFuncs() []string {
	return d.Flat().Hottest()
}

func sortedBlocks(f *FuncProfile) []string {
	names := make([]string, 0, len(f.Blocks))
	for b := range f.Blocks {
		names = append(names, b)
	}
	sort.Slice(names, func(i, j int) bool {
		if f.Blocks[names[i]] != f.Blocks[names[j]] {
			return f.Blocks[names[i]] > f.Blocks[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// WriteFolded emits the profile in folded-stack format, one stack per
// line ("app;func;block N"), directly consumable by flamegraph.pl and
// speedscope. An empty app omits the leading frame. Samples without block
// attribution emit the two-frame stack "app;func N". Output order is
// deterministic: functions by descending heat, blocks by descending heat
// within each function.
func (d *DeepProfile) WriteFolded(w io.Writer, app string) error {
	prefix := ""
	if app != "" {
		prefix = app + ";"
	}
	for _, fn := range d.sortedFuncs() {
		f := d.Funcs[fn]
		var attributed uint64
		for _, b := range sortedBlocks(f) {
			if _, err := fmt.Fprintf(w, "%s%s;%s %d\n", prefix, fn, b, f.Blocks[b]); err != nil {
				return err
			}
			attributed += f.Blocks[b]
		}
		if rest := f.Samples - attributed; rest > 0 {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", prefix, fn, rest); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePprofRaw emits the profile as `pprof -raw`-style text: a Samples
// section of (count, cycles, location-stack) records followed by a
// Locations table, protobuf-free and deterministic. periodCycles is the
// sampling interval in simulated cycles (each sample stands for that many
// cycles of execution).
func (d *DeepProfile) WritePprofRaw(w io.Writer, periodCycles uint64) error {
	if periodCycles == 0 {
		periodCycles = 1
	}
	// Assign location IDs deterministically: per function (hottest first),
	// the function location then its blocks by descending heat.
	type loc struct {
		id   int
		name string
	}
	var locs []loc
	funcLoc := make(map[string]int)
	blockLoc := make(map[string]int) // "fn;block"
	for _, fn := range d.sortedFuncs() {
		funcLoc[fn] = len(locs) + 1
		locs = append(locs, loc{id: len(locs) + 1, name: fn})
		for _, b := range sortedBlocks(d.Funcs[fn]) {
			key := fn + ";" + b
			blockLoc[key] = len(locs) + 1
			locs = append(locs, loc{id: len(locs) + 1, name: key})
		}
	}
	if _, err := fmt.Fprintf(w, "PeriodType: cpu cycles\nPeriod: %d\nSamples:\nsamples/count cpu/cycles\n", periodCycles); err != nil {
		return err
	}
	for _, fn := range d.sortedFuncs() {
		f := d.Funcs[fn]
		var attributed uint64
		for _, b := range sortedBlocks(f) {
			n := f.Blocks[b]
			attributed += n
			if _, err := fmt.Fprintf(w, "%10d %10d: %d %d\n", n, n*periodCycles, blockLoc[fn+";"+b], funcLoc[fn]); err != nil {
				return err
			}
		}
		if rest := f.Samples - attributed; rest > 0 {
			if _, err := fmt.Fprintf(w, "%10d %10d: %d\n", rest, rest*periodCycles, funcLoc[fn]); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintln(w, "Locations"); err != nil {
		return err
	}
	for _, l := range locs {
		if _, err := fmt.Fprintf(w, "%6d: 0x%x %s\n", l.id, l.id, l.name); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "Mappings\n     1: 0x0/0x0/0x0 [simulated]")
	return err
}
