// Live scrape surface: an HTTP handler that exposes a running fleet's
// telemetry, causal trace and deep profile without perturbing the
// simulation. Each server simulation is single-goroutine; publishing works
// by having every server periodically deposit a deep-copied snapshot of
// its single-writer registry (and its samplers' deep profiles) into a
// mutex-guarded slot. Scrapes merge the deposited snapshots in
// server-index order — the same rollup discipline as the end-of-run merge
// — so a mid-run scrape is a coherent, if slightly stale, cluster view and
// the simulation itself never takes a lock.
package fleet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"

	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/telemetry"
)

// publishEveryQuanta is how often each server deposits a fresh snapshot.
const publishEveryQuanta = 64

// liveState holds the per-server snapshots behind the scrape surface.
type liveState struct {
	mu    sync.Mutex
	regs  []*telemetry.Registry
	profs []map[string]*sampling.DeepProfile
}

func (l *liveState) publish(idx int, reg *telemetry.Registry, prof map[string]*sampling.DeepProfile) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.regs[idx] = reg
	l.profs[idx] = prof
}

// livePublisher is the per-server machine agent that deposits snapshots.
// It only reads simulation state (Registry.Clone, DeepLifetime), so adding
// it never changes what the simulation computes.
type livePublisher struct {
	live *liveState
	idx  int
	reg  *telemetry.Registry
	prof func() map[string]*sampling.DeepProfile
	step uint64
	next uint64
}

func (p *livePublisher) Tick(m *machine.Machine) {
	if m.Now() < p.next {
		return
	}
	p.next = m.Now() + p.step
	p.live.publish(p.idx, p.reg.Clone(), p.prof())
}

// Snapshot merges the currently published per-server snapshots — in
// server-index order, like the end-of-run rollup — into a fresh registry
// and per-app deep-profile map. Before Handler is called (or before any
// server has published) both are empty. Safe to call from any goroutine.
func (f *Fleet) Snapshot() (*telemetry.Registry, map[string]*sampling.DeepProfile) {
	out := telemetry.New(telemetry.Config{})
	profs := make(map[string]*sampling.DeepProfile)
	if f.live == nil {
		return out, profs
	}
	f.live.mu.Lock()
	defer f.live.mu.Unlock()
	for i, r := range f.live.regs {
		if r != nil {
			out.MergeFrom(r, i)
		}
	}
	for _, pm := range f.live.profs {
		mergeProfiles(profs, pm)
	}
	return out, profs
}

// Handler enables live publishing and returns the scrape mux:
//
//	/metrics  — Prometheus text of the merged per-server registries
//	/trace    — Chrome trace-event JSON (spans + events; Perfetto-loadable)
//	/profile  — folded stacks (app;func;block N) for flamegraph tools
//	/contend  — JSON contention-detector state (per-server verdicts,
//	            window quantile thresholds, migration log)
//	/audit    — JSON conservation-auditor report (per-epoch instance
//	            census + invariant violations)
//	/slo      — JSON SLO status (per-spec state, burn rate, since-epoch)
//	/alerts   — JSON alert log (every lifecycle transition in epoch order)
//	/postmortem — JSON array of frozen flight-recorder bundles
//	            (these five are the coordinator's exports: each serves its
//	            placeholder body from the exports table until the
//	            coordinator first publishes it)
//	/healthz  — JSON liveness: servers, how many have published; status
//	            flips to "degraded" while the migration circuit breaker is
//	            open or once the conservation auditor has recorded a
//	            violation
//
// plus the standard net/http/pprof handlers under /debug/pprof/ for the
// simulator process itself. Call before Run; scraping during the run
// returns the latest published snapshots.
func (f *Fleet) Handler() http.Handler {
	if f.live == nil {
		f.live = &liveState{
			regs:  make([]*telemetry.Registry, f.cfg.Servers),
			profs: make([]map[string]*sampling.DeepProfile, f.cfg.Servers),
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg, _ := f.Snapshot()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		reg, _ := f.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		reg.WriteChromeTrace(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		_, profs := f.Snapshot()
		w.Header().Set("Content-Type", "text/plain")
		writeFoldedProfiles(w, profs) //nolint:errcheck // client went away
	})
	for _, ex := range exports {
		mux.HandleFunc("/"+ex.name, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			f.WriteExport(ex.name, w) //nolint:errcheck // client went away
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		f.live.mu.Lock()
		published := 0
		for _, reg := range f.live.regs {
			if reg != nil {
				published++
			}
		}
		f.live.mu.Unlock()
		status, reason := f.health()
		w.Header().Set("Content-Type", "application/json")
		if reason != "" {
			fmt.Fprintf(w, "{\"status\":%s,\"reason\":%s,\"servers\":%d,\"published\":%d}\n",
				telemetry.JSONString(status), telemetry.JSONString(reason), f.cfg.Servers, published)
			return
		}
		fmt.Fprintf(w, "{\"status\":%s,\"servers\":%d,\"published\":%d}\n", telemetry.JSONString(status), f.cfg.Servers, published)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// health reads the published coordinator state and reports "degraded"
// (with a reason) when the migration circuit breaker is open or the
// conservation auditor has recorded any violation; "ok" otherwise.
func (f *Fleet) health() (status, reason string) {
	p := f.latest()
	if p.contend != nil && p.contend.BreakerState == "open" {
		return "degraded", "circuit breaker open"
	}
	if p.audit != nil && len(p.audit.Violations) > 0 {
		return "degraded", "audit violations"
	}
	return "ok", ""
}

// WriteProfile writes the end-of-run fleet deep profile as folded stacks,
// apps in name order, per-server profiles merged in server-index order —
// byte-identical at any worker count under a fixed seed. Valid after Run.
func (f *Fleet) WriteProfile(w io.Writer) error {
	profs := make(map[string]*sampling.DeepProfile)
	for _, pm := range f.serverProf {
		mergeProfiles(profs, pm)
	}
	return writeFoldedProfiles(w, profs)
}

// mergeProfiles folds src into dst app by app (cloning on first sight, so
// dst never aliases src's profiles).
func mergeProfiles(dst map[string]*sampling.DeepProfile, src map[string]*sampling.DeepProfile) {
	for app, d := range src {
		if p := dst[app]; p != nil {
			p.Merge(d)
		} else {
			dst[app] = d.Clone()
		}
	}
}

func writeFoldedProfiles(w io.Writer, profs map[string]*sampling.DeepProfile) error {
	apps := make([]string, 0, len(profs))
	for app := range profs {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		if err := profs[app].WriteFolded(w, app); err != nil {
			return err
		}
	}
	return nil
}
