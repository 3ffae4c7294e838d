package cache

import (
	"testing"
)

// replayRNG is a tiny deterministic generator (splitmix64) so the
// equivalence tests run the same access streams everywhere.
type replayRNG uint64

func (r *replayRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randomAccesses builds a mixed access stream biased toward the shapes the
// superblock engine batches: stretches of repeated and line-adjacent
// addresses (the memo and run-coalescing fast paths), occasional far jumps
// (full set walks, evictions), NT flags, and all three kinds.
func randomAccesses(rng *replayRNG, n int, loadsOnly bool) []Access {
	accs := make([]Access, 0, n)
	addr := uint64(0x10000)
	for len(accs) < n {
		switch rng.next() % 8 {
		case 0: // far jump: new region
			addr = (rng.next() % (8 << 20)) &^ 7
		case 1: // next line
			addr += 64
		case 2: // stride within the line
			addr += 16
		default: // repeat the address (memo / coalescing territory)
		}
		a := Access{Addr: addr, Kind: AccessLoad}
		if !loadsOnly {
			switch rng.next() % 10 {
			case 0:
				a.Kind = AccessStore
			case 1:
				a.Kind = AccessPrefetch
			}
			a.NT = rng.next()%5 == 0
		}
		accs = append(accs, a)
	}
	return accs
}

// applyOneByOne is the oracle: the access stream issued through the
// per-call entry points, summing load stalls exactly as the interpreter
// does (integer division per access).
func applyOneByOne(h *Hierarchy, core int, accs []Access, mlp uint64) uint64 {
	var stall uint64
	for _, a := range accs {
		switch a.Kind {
		case AccessLoad:
			stall += uint64(h.Load(core, a.Addr, a.NT)) / mlp
		case AccessStore:
			h.Store(core, a.Addr, a.NT)
		case AccessPrefetch:
			h.Prefetch(core, a.Addr, a.NT)
		}
	}
	return stall
}

// requireCacheEqual compares the complete internal state of two levels:
// every tag and owner word, every set's recency word and cold mask, and the
// counters.
func requireCacheEqual(t *testing.T, name string, a, b *Cache) {
	t.Helper()
	if a.stats != b.stats {
		t.Fatalf("%s: stats diverged: %+v vs %+v", name, a.stats, b.stats)
	}
	for i := range a.tags {
		if a.tags[i] != b.tags[i] || a.owners[i] != b.owners[i] {
			t.Fatalf("%s: line %d diverged: tag %x/%x owner %d/%d",
				name, i, a.tags[i], b.tags[i], a.owners[i], b.owners[i])
		}
	}
	for s := range a.order {
		if a.order[s] != b.order[s] {
			t.Fatalf("%s: set %d recency word diverged: %016x vs %016x", name, s, a.order[s], b.order[s])
		}
	}
	for s := range a.cold {
		if a.cold[s] != b.cold[s] {
			t.Fatalf("%s: set %d cold mask diverged: %04x vs %04x", name, s, a.cold[s], b.cold[s])
		}
	}
}

func requireHierEqual(t *testing.T, a, b *Hierarchy) {
	t.Helper()
	for c := range a.l1 {
		requireCacheEqual(t, "L1", a.l1[c], b.l1[c])
		requireCacheEqual(t, "L2", a.l2[c], b.l2[c])
	}
	requireCacheEqual(t, "LLC", a.llc, b.llc)
	for c := range a.per {
		if a.per[c] != b.per[c] {
			t.Fatalf("core %d LLC stats diverged: %+v vs %+v", c, a.per[c], b.per[c])
		}
	}
}

// replayGeometries exercises the pow2 mask/shift indexing, the div/mod
// fallback (48 sets), and every NT policy at some level.
func replayGeometries() []HierarchyConfig {
	def := DefaultHierarchy(2)
	odd := def
	odd.L1 = Config{Name: "L1", SizeBytes: 24 << 10, LineSize: 64, Assoc: 8, HitLatency: 1, NT: NTBypass}
	odd.L2.NT = NTDemote
	odd.LLC.NT = NTIgnore
	return []HierarchyConfig{def, odd}
}

// TestReplayMatchesPerCallWalk drives identical mixed access streams
// through Replay (batched) and the per-call walk and requires identical
// stalls, counters and complete line state — the contract the superblock
// engine's batching rests on.
func TestReplayMatchesPerCallWalk(t *testing.T) {
	for gi, cfg := range replayGeometries() {
		for _, mlp := range []uint64{1, 3, 4} {
			rng := replayRNG(uint64(gi)*97 + mlp)
			ha, hb := NewHierarchy(cfg), NewHierarchy(cfg)
			for batch := 0; batch < 200; batch++ {
				n := int(rng.next()%12) + 1
				core := int(rng.next() % 2)
				accs := randomAccesses(&rng, n, false)
				want := applyOneByOne(ha, core, accs, mlp)
				got := hb.Replay(core, accs, mlp)
				if got != want {
					t.Fatalf("geom %d mlp %d batch %d: stall %d, per-call walk %d", gi, mlp, batch, got, want)
				}
			}
			requireHierEqual(t, ha, hb)
		}
	}
}

// TestReplayLoadsMatchesPerCallWalk is the same contract for the
// plain-load specialization, including its same-line run coalescing.
func TestReplayLoadsMatchesPerCallWalk(t *testing.T) {
	for gi, cfg := range replayGeometries() {
		for _, mlp := range []uint64{1, 3, 4} {
			rng := replayRNG(uint64(gi)*131 + mlp)
			ha, hb := NewHierarchy(cfg), NewHierarchy(cfg)
			for batch := 0; batch < 200; batch++ {
				n := int(rng.next()%12) + 1
				core := int(rng.next() % 2)
				accs := randomAccesses(&rng, n, true)
				addrs := make([]uint64, len(accs))
				for i, a := range accs {
					addrs[i] = a.Addr
				}
				want := applyOneByOne(ha, core, accs, mlp)
				got := hb.ReplayLoads(core, addrs, mlp)
				if got != want {
					t.Fatalf("geom %d mlp %d batch %d: stall %d, per-call walk %d", gi, mlp, batch, got, want)
				}
			}
			requireHierEqual(t, ha, hb)
		}
	}
}

// TestRepeatedLineMemoAcrossKinds pins the memo rule — it names a line that
// is resident, warm and MRU — at its edges: an NT hit at an NTBypass level
// demotes through the scan path and poisons the memo, the next plain access
// still hits and re-warms the line, and an NT-bypass miss poisons the memo
// so the next access rescans.
func TestRepeatedLineMemoAcrossKinds(t *testing.T) {
	// One set of four ways, filled: every line below competes for them.
	c := New(Config{Name: "x", SizeBytes: 256, LineSize: 64, Assoc: 4, HitLatency: 1, NT: NTBypass})
	for _, a := range []uint64{0x2000, 0x3000, 0x4000, 0x1000} {
		c.Access(a, false)
	}
	// The last fill left the memo pointing at 0x1000.
	if !c.Access(0x1008, false) {
		t.Fatal("repeated line should hit via memo")
	}
	if !c.Access(0x1010, true) {
		t.Fatal("NT repeated line should still hit")
	}
	if c.stats.NTDemoted != 1 {
		t.Fatalf("NT hit on the memoised line must demote once: %+v", c.stats)
	}
	if c.lastIdx != -1 {
		t.Fatalf("memo not poisoned after a demoting hit: lastIdx=%d", c.lastIdx)
	}
	if !c.Access(0x1018, false) {
		t.Fatal("demoted line must still be resident")
	}
	if c.stats.NTDemoted != 1 {
		t.Fatalf("plain hit counted as a demotion: %+v", c.stats)
	}
	// The plain hit re-warmed the line, so the set's next fill takes the
	// LRU way (0x2000), not the line that was cold a moment ago.
	c.Access(0x5000, false)
	if !c.Probe(0x1000) || c.Probe(0x2000) {
		t.Fatalf("after the fill: re-warmed line resident %v, LRU line resident %v", c.Probe(0x1000), c.Probe(0x2000))
	}
	c.Access(0x9000, true) // NT-bypass miss: no fill, memo must poison
	if c.lastIdx != -1 {
		t.Fatalf("memo not poisoned after NT-bypass miss: lastIdx=%d", c.lastIdx)
	}
	if !c.Access(0x5008, false) {
		t.Fatal("last filled line must still be resident after bypass")
	}
}
