package fleet

import (
	"math"
	"sort"
)

// arrival is a batch instance landing on a server mid-run: a chaos
// re-placement after its original server crashed, or a live migration
// landing after its blackout.
type arrival struct {
	App       string
	AtSeconds float64
	// migrated marks a live-migration landing (vs a crash re-placement);
	// from is then the source server index.
	migrated bool
	from     int
	// rollback marks a failed move returning to its source after every
	// landing attempt failed.
	rollback bool
}

// chaosPlan is the cluster-wide crash schedule plus the tally of the
// scheduler's reactions to it. The schedule is drawn up front — before any
// server simulates — as a pure function of (chaos seed, server index); the
// reactions are decided by replaceDead in the coordinator's single-threaded
// barrier sections. Neither depends on worker interleaving.
type chaosPlan struct {
	// crashAt is when each server fails as a whole (+Inf = never).
	crashAt []float64
	// settled marks crashed servers whose instance's fate is decided.
	settled      []bool
	crashes      int
	replacements int
	unplaced     int
}

// buildChaosPlan draws the server-crash schedule.
func (f *Fleet) buildChaosPlan() chaosPlan {
	n, ch := f.cfg.Servers, f.cfg.Chaos
	cp := chaosPlan{crashAt: make([]float64, n), settled: make([]bool, n)}
	for i := range cp.crashAt {
		cp.crashAt[i] = math.Inf(1)
		if ch == nil {
			continue
		}
		if at, crashed := ch.ServerCrashAt(i, f.cfg.horizon()); crashed {
			cp.crashAt[i] = at
			cp.crashes++
		}
	}
	return cp
}

// crashTimes returns the scheduled crash instants in ascending order.
func (cp *chaosPlan) crashTimes() []float64 {
	var ts []float64
	for _, at := range cp.crashAt {
		if !math.IsInf(at, 1) {
			ts = append(ts, at)
		}
	}
	sort.Float64s(ts)
	return ts
}

// replaceDead is the cluster scheduler's reaction to whole-server failure,
// run at every barrier: each server that crashed since the last one while
// hosting a batch instance gets it re-placed, RestartDelaySeconds after the
// crash, onto the lowest-index batch-free server that is alive at the
// landing and has nothing inbound — computed against live occupancy, because
// earlier re-placements and migrations move instances on and off servers.
// The scheduler cannot see the future: a target that is up at the landing
// may itself crash later, and its instance is then re-placed again. An
// instance that cannot be re-placed (horizon too close, or no free survivor)
// stays attached to the corpse and is accounted as dead with it.
func (f *Fleet) replaceDead(sims []*serverSim, plan *chaosPlan, t float64) {
	if plan.crashes == 0 {
		return
	}
	// Victims in (crash time, index) order — the order a real scheduler
	// observes the failures.
	var victims []*serverSim
	for i, s := range sims {
		if !s.up(t) && !plan.settled[i] {
			plan.settled[i] = true
			if s.host != nil {
				victims = append(victims, s)
			}
		}
	}
	sort.SliceStable(victims, func(a, b int) bool { return victims[a].stop < victims[b].stop })
	for _, v := range victims {
		// No server is free at or past the horizon, where every stop lies.
		land := v.stop + f.cfg.Chaos.RestartDelaySeconds
		target := firstFree(sims, land, v.idx)
		if target < 0 {
			plan.unplaced++
			continue
		}
		sims[target].scheduleArrival(arrival{App: v.detachInstance(), AtSeconds: land, from: v.idx})
		plan.replacements++
	}
}
