package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small(nt NTPolicy) *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(Config{Name: "t", SizeBytes: 512, LineSize: 64, Assoc: 2, HitLatency: 1, NT: nt})
}

func TestHitAfterMiss(t *testing.T) {
	c := small(NTIgnore)
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1008, false) {
		t.Fatal("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(NTIgnore)
	// Three distinct lines mapping to set 0 in a 2-way set: 4 sets, line 64,
	// so addresses 0, 4*64=256, 512 all hit set 0.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU now
	c.Access(d, false) // evicts b (LRU)
	if !c.Probe(a) {
		t.Error("a (MRU) was evicted")
	}
	if c.Probe(b) {
		t.Error("b (LRU) survived")
	}
	if !c.Probe(d) {
		t.Error("d not resident after fill")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestNTBypassDoesNotAllocate(t *testing.T) {
	c := small(NTBypass)
	c.Access(0x2000, true)
	if c.Probe(0x2000) {
		t.Error("NT miss allocated under bypass policy")
	}
	if s := c.Stats(); s.NTBypassed != 1 {
		t.Errorf("NTBypassed = %d, want 1", s.NTBypassed)
	}
	// Non-NT access still allocates.
	c.Access(0x2000, false)
	if !c.Probe(0x2000) {
		t.Error("normal miss did not allocate")
	}
}

func TestNTBypassDemotesOnHit(t *testing.T) {
	c := small(NTBypass)
	a, b, d := uint64(0), uint64(256), uint64(512) // same set
	c.Access(a, false)
	c.Access(b, false)
	// NT hit on a demotes it to LRU even though it was just filled...
	c.Access(a, true)
	// ...so the next fill in this set evicts a, not b.
	c.Access(d, false)
	if c.Probe(a) {
		t.Error("NT-demoted line survived eviction")
	}
	if !c.Probe(b) {
		t.Error("line b was wrongly evicted")
	}
}

func TestNTDemoteAllocatesAtLRU(t *testing.T) {
	c := small(NTDemote)
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false)
	c.Access(b, true) // NT fill at LRU
	c.Access(d, false)
	if c.Probe(b) {
		t.Error("NT-demoted fill survived; should have been the victim")
	}
	if !c.Probe(a) || !c.Probe(d) {
		t.Error("wrong victim chosen under NTDemote")
	}
}

func TestNTIgnoreTreatsNTNormally(t *testing.T) {
	c := small(NTIgnore)
	c.Access(0x3000, true)
	if !c.Probe(0x3000) {
		t.Error("NTIgnore should allocate NT fills")
	}
}

func TestResetClears(t *testing.T) {
	c := small(NTIgnore)
	c.Access(0x1000, false)
	c.Reset()
	if c.ValidLines() != 0 {
		t.Error("lines survive Reset")
	}
	if c.Stats() != (Stats{}) {
		t.Error("stats survive Reset")
	}
}

func TestOccupancy(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 4096, LineSize: 64, Assoc: 4, HitLatency: 1})
	for a := uint64(0); a < 1024; a += 64 {
		c.Access(a, false)
	}
	if got := c.ValidLines(); got != 16 {
		t.Errorf("ValidLines = %d, want 16", got)
	}
}

func TestStatsSubAndMissRate(t *testing.T) {
	c := small(NTIgnore)
	c.Access(0x1000, false)
	before := c.Stats()
	c.Access(0x1000, false)
	c.Access(0x9000, false)
	d := c.Stats().Sub(before)
	if d.Accesses != 2 || d.Hits != 1 || d.Misses != 1 {
		t.Errorf("delta = %+v", d)
	}
	if mr := c.Stats().MissRate(); mr <= 0 || mr >= 1 {
		t.Errorf("MissRate = %v", mr)
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("MissRate of empty stats should be 0")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Name: "zero", SizeBytes: 0, LineSize: 64, Assoc: 2},
		{Name: "nonpow2", SizeBytes: 512, LineSize: 48, Assoc: 2},
		{Name: "indivisible", SizeBytes: 500, LineSize: 64, Assoc: 2},
		{Name: "wide", SizeBytes: 17 * 64, LineSize: 64, Assoc: 17},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: hits + misses == accesses; valid lines never exceed capacity;
// a second access to the same address under any non-bypass policy hits.
func TestCacheInvariantsRandom(t *testing.T) {
	prop := func(seed int64, policyRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pol := NTPolicy(policyRaw % 3)
		c := New(Config{Name: "q", SizeBytes: 2048, LineSize: 64, Assoc: 4, HitLatency: 1, NT: pol})
		capacity := 2048 / 64
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1 << 14))
			nt := rng.Intn(3) == 0
			c.Access(addr, nt)
			if c.ValidLines() > capacity {
				return false
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			return false
		}
		// Determinism: same addr twice back-to-back, normal access.
		addr := uint64(rng.Intn(1 << 14))
		c.Access(addr, false)
		return c.Access(addr, false)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(2))
	cfg := h.Config()
	// Cold: memory latency.
	if lat := h.Load(0, 0x10000, false); lat != cfg.MemLatency {
		t.Errorf("cold load latency = %d, want %d", lat, cfg.MemLatency)
	}
	// Warm: L1 latency.
	if lat := h.Load(0, 0x10000, false); lat != cfg.L1.HitLatency {
		t.Errorf("warm load latency = %d, want %d", lat, cfg.L1.HitLatency)
	}
	// Another core does not see core 0's private lines but does share LLC.
	if lat := h.Load(1, 0x10000, false); lat != cfg.LLC.HitLatency {
		t.Errorf("cross-core load latency = %d, want LLC %d", lat, cfg.LLC.HitLatency)
	}
}

func TestHierarchyNTBypassReducesLLCFootprint(t *testing.T) {
	cfg := DefaultHierarchy(1)
	streamBytes := uint64(4 << 20) // 2x the LLC

	run := func(nt bool) int {
		h := NewHierarchy(cfg)
		for a := uint64(0); a < streamBytes; a += 64 {
			h.Load(0, a, nt)
		}
		return h.LLC().ValidLines()
	}
	normal := run(false)
	ntLines := run(true)
	if ntLines >= normal/10 {
		t.Errorf("NT stream occupies %d LLC lines vs %d normal; expected order-of-magnitude reduction", ntLines, normal)
	}
}

func TestHierarchyCoreStats(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(2))
	h.Load(0, 0x40000, false)
	h.Load(0, 0x40000, false) // L1 hit, no LLC traffic
	s0 := h.CoreStats(0)
	if s0.LLCAccesses != 1 || s0.LLCMisses != 1 {
		t.Errorf("core 0 stats = %+v, want 1 access 1 miss", s0)
	}
	if s1 := h.CoreStats(1); s1.LLCAccesses != 0 {
		t.Errorf("idle core has LLC accesses: %+v", s1)
	}
}

func TestHierarchyStoreAndPrefetch(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(1))
	if lat := h.Store(0, 0x8000, false); lat != 1 {
		t.Errorf("store latency = %d, want 1 (buffered)", lat)
	}
	if !h.L1(0).Probe(0x8000) {
		t.Error("store did not allocate in L1")
	}
	h.Prefetch(0, 0x9000, false)
	if lat := h.Load(0, 0x9000, false); lat != h.Config().L1.HitLatency {
		t.Errorf("load after prefetch latency = %d, want L1 hit", lat)
	}
}

func TestFlushCore(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(2))
	h.Load(0, 0x8000, false)
	h.FlushCore(0)
	if h.L1(0).ValidLines() != 0 || h.L2(0).ValidLines() != 0 {
		t.Error("FlushCore left private lines")
	}
	if h.LLC().ValidLines() == 0 {
		t.Error("FlushCore should not clear the shared LLC")
	}
}

func TestOccupancyAttribution(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(2))
	// Core 0 fills 1 MiB, core 1 fills 256 KiB of disjoint addresses.
	for a := uint64(0); a < 1<<20; a += 64 {
		h.Load(0, a, false)
	}
	for a := uint64(1 << 30); a < 1<<30+256<<10; a += 64 {
		h.Load(1, a, false)
	}
	occ := h.LLCOccupancy()
	if occ[0] != (1<<20)/64 {
		t.Errorf("core 0 occupancy = %d lines, want %d", occ[0], (1<<20)/64)
	}
	if occ[1] != (256<<10)/64 {
		t.Errorf("core 1 occupancy = %d lines, want %d", occ[1], (256<<10)/64)
	}
	// Re-filling an address from the other core transfers ownership only
	// on refill (evict + miss), not on hit.
	h.Load(1, 0, false) // hits LLC? it was filled by core 0; core 1's L1 misses -> LLC hit
	occ2 := h.LLCOccupancy()
	if occ2[0] != occ[0] {
		t.Errorf("LLC hit transferred ownership: %d -> %d", occ[0], occ2[0])
	}
}

func TestOccupancyNTBypassKeepsFootprintZero(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy(2))
	for a := uint64(0); a < 4<<20; a += 64 {
		h.Load(0, a, true) // NT stream
	}
	occ := h.LLCOccupancy()
	if occ[0] != 0 {
		t.Errorf("NT stream owns %d LLC lines, want 0", occ[0])
	}
}
