// Package workload is the application catalog: synthetic equivalents of the
// SPEC CPU2006, SmashBench, CloudSuite and PARSEC programs the paper
// evaluates with (Table II).
//
// Real benchmark binaries cannot run on the simulated machine, so each
// catalog entry is an IR program whose observable characteristics are tuned
// to the published behaviour of its namesake:
//
//   - cache behaviour — working-set size, access pattern (streaming,
//     pointer-chasing, uniform random, hot-set) and memory intensity set
//     where the app falls on the contentious↔sensitive spectrum
//     (libquantum/lbm/sledge stream multi-MiB buffers; bst pointer-chases;
//     bzip2 is compute-bound with a warm hot set; media-streaming is the
//     most contention-sensitive service),
//   - static structure — total static loads, loads in covered regions, and
//     loads at maximum loop depth approximate Figure 8's per-app counts, so
//     the search-space-reduction heuristics reproduce, and
//   - service shape — latency-sensitive apps are request-driven (one entry-
//     function completion per request) so a load generator can drive them
//     at an offered QPS, while batch apps restart work units forever.
package workload

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pcc"
	"repro/internal/progbin"
)

// Class partitions the catalog.
type Class int

// Workload classes.
const (
	// Batch apps are throughput-oriented hosts, candidates for protean
	// transformation.
	Batch Class = iota
	// LatencySensitive apps are high-priority request-driven services whose
	// QoS must be protected.
	LatencySensitive
)

func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case LatencySensitive:
		return "latency-sensitive"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Spec is one catalog entry.
type Spec struct {
	Name  string
	Class Class
	// Suite names the benchmark suite the app stands in for.
	Suite string
	// Description is a one-line behavioural summary.
	Description string
	// Config is the generator configuration; Module() builds from it.
	Config AppConfig
}

// Module builds a fresh IR module for the app.
func (s Spec) Module() *ir.Module { return Build(s.Config) }

// CompileProtean compiles the app with the protean pass. Each call returns
// a fresh binary; Binary shares one per process.
func (s Spec) CompileProtean() (*progbin.Binary, error) {
	return pcc.Compile(s.Module(), pcc.Options{Protean: true})
}

// CompilePlain compiles the app without protean metadata. Each call
// returns a fresh binary.
func (s Spec) CompilePlain() (*progbin.Binary, error) {
	return pcc.Compile(s.Module(), pcc.Options{})
}

// compiledApp holds one catalog app's two binaries, each compiled on first
// use.
type compiledApp struct {
	plain, protean func() (*progbin.Binary, error)
}

var compiledApps = sync.OnceValue(func() map[string]compiledApp {
	apps := make(map[string]compiledApp)
	for _, s := range Catalog() {
		apps[s.Name] = compiledApp{
			plain:   sync.OnceValues(s.CompilePlain),
			protean: sync.OnceValues(s.CompileProtean),
		}
	}
	return apps
})

// Binary returns the named catalog app's plain or protean binary, compiled
// at most once per process and shared by every caller, as a binary is
// compiled once and shipped to every machine that runs it. Callers must not
// mutate it; an unknown name is an error.
func Binary(name string, protean bool) (*progbin.Binary, error) {
	app, ok := compiledApps()[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown app %q", name)
	}
	if protean {
		return app.protean()
	}
	return app.plain()
}

// ProcessConfig returns the canonical machine options for the class:
// batch apps restart forever, latency-sensitive apps are request-gated.
func (s Spec) ProcessConfig() machine.ProcessConfig {
	if s.Class == LatencySensitive {
		return machine.ProcessConfig{Gated: true, Label: s.Name}
	}
	return machine.ProcessConfig{Restart: true, Label: s.Name}
}

// ByName returns the catalog entry with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// MustByName is ByName that panics on unknown names (test/bench fixtures).
func MustByName(name string) Spec {
	s, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("workload: unknown app %q", name))
	}
	return s
}

// Names lists catalog names of one class, sorted.
func Names(c Class) []string {
	var out []string
	for _, s := range Catalog() {
		if s.Class == c {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// BatchHosts returns the ten batch applications of the paper's main
// evaluation (Figures 7–15), in the figures' presentation order.
func BatchHosts() []string {
	return []string{
		"blockie", "bst", "er-naive", "sledge",
		"bzip2", "milc", "soplex", "libquantum", "lbm", "sphinx3",
	}
}

// Webservices returns the three CloudSuite latency-sensitive services.
func Webservices() []string {
	return []string{"web-search", "media-streaming", "graph-analytics"}
}

// SPECFig4Apps returns the 18 SPEC CPU2006 applications in the presentation
// order of Figures 4 and 5.
func SPECFig4Apps() []string {
	return []string{
		"bzip2", "gcc", "mcf", "milc", "namd", "gobmk", "dealII", "soplex",
		"povray", "hmmer", "sjeng", "libquantum", "h264ref", "lbm",
		"omnetpp", "astar", "sphinx3", "xalancbmk",
	}
}
