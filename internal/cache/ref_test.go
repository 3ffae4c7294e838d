package cache

import (
	"fmt"
	"testing"
)

// refCache is the reference replacement model Cache is derived from and
// checked against: one timestamp per line, a clock that ticks on every
// access, and a victim scan — first free way, else the lowest (stamp, way).
// A demoted line carries stamp zero. No memo, no recency word, no cold mask.
type refCache struct {
	sets, assoc int
	lineBits    uint
	nt          NTPolicy
	tags        []uint64 // (tag<<1)|1, or 0 for a free way
	stamps      []uint64
	owners      []int8
	clock       uint64
	stats       Stats
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.SizeBytes / (cfg.LineSize * cfg.Assoc)
	r := &refCache{sets: sets, assoc: cfg.Assoc, nt: cfg.NT}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		r.lineBits++
	}
	r.reset()
	return r
}

func (r *refCache) reset() {
	n := r.sets * r.assoc
	r.tags, r.stamps, r.owners = make([]uint64, n), make([]uint64, n), make([]int8, n)
	r.clock, r.stats = 0, Stats{}
}

func (r *refCache) accessBy(core int, addr uint64, nt bool) bool {
	r.stats.Accesses++
	r.clock++
	line := addr >> r.lineBits
	want := line/uint64(r.sets)<<1 | 1
	lo := int(line%uint64(r.sets)) * r.assoc
	for i := lo; i < lo+r.assoc; i++ {
		if r.tags[i] == want {
			r.stats.Hits++
			r.stamps[i] = r.clock
			if nt && r.nt == NTBypass {
				r.stamps[i] = 0
				r.stats.NTDemoted++
			}
			return true
		}
	}
	r.stats.Misses++
	if nt && r.nt == NTBypass {
		r.stats.NTBypassed++
		return false
	}
	victim := lo
	for i := lo; i < lo+r.assoc; i++ {
		if r.tags[i] == 0 {
			victim = i
			break
		}
		if r.stamps[i] < r.stamps[victim] {
			victim = i
		}
	}
	if r.tags[victim] != 0 {
		r.stats.Evictions++
	}
	r.tags[victim], r.stamps[victim], r.owners[victim] = want, r.clock, int8(core)
	if nt && r.nt == NTDemote {
		r.stamps[victim] = 0
		r.stats.NTDemoted++
	}
	return false
}

// refConfig is a level of sets × assoc 64-byte lines.
func refConfig(assoc, sets int, nt NTPolicy) Config {
	return Config{Name: "ref", SizeBytes: sets * assoc * 64, LineSize: 64, Assoc: assoc, HitLatency: 1, NT: nt}
}

// requireMatchesRef compares line contents way by way.
func requireMatchesRef(t *testing.T, c *Cache, r *refCache) {
	t.Helper()
	for i := range r.tags {
		if c.tags[i] != r.tags[i] || c.owners[i] != r.owners[i] {
			t.Fatalf("set %d way %d: tag %x owner %d, timestamp model %x owner %d",
				i/r.assoc, i%r.assoc, c.tags[i], c.owners[i], r.tags[i], r.owners[i])
		}
	}
}

// TestRecencyWordMatchesTimestampLRU drives Cache and the timestamp model
// with the same stream and requires the same hit and the same counters after
// every access, and the same line in every way at the end. The stream spans
// about twice the cache's lines so sets stay full; a quarter of it is NT, a
// quarter repeats the memoised line, and a Reset lands mid-stream.
func TestRecencyWordMatchesTimestampLRU(t *testing.T) {
	const accesses = 40000
	for _, assoc := range []int{1, 2, 3, 4, 8, 16} {
		for _, sets := range []int{1, 4, 6} { // 6: div/mod indexing
			for _, nt := range []NTPolicy{NTIgnore, NTBypass, NTDemote} {
				t.Run(fmt.Sprintf("assoc%d_sets%d_%v", assoc, sets, nt), func(t *testing.T) {
					cfg := refConfig(assoc, sets, nt)
					c, r := New(cfg), newRefCache(cfg)
					rng := replayRNG(assoc*100 + sets*10 + int(nt))
					lines := uint64(2 * assoc * sets)
					for i := 0; i < accesses; i++ {
						if i == accesses/2 {
							c.Reset()
							r.reset()
						}
						x := rng.next()
						addr := (x>>8)%lines<<6 | x>>40&63
						if x&3 == 0 {
							addr = c.lastLine<<6 | x>>40&63
						}
						core, isNT := int(x>>2&1), x>>4&3 == 0
						got, want := c.AccessBy(core, addr, isNT), r.accessBy(core, addr, isNT)
						if got != want || c.stats != r.stats {
							t.Fatalf("access %d (addr %#x core %d nt %v): hit %v stats %+v, timestamp model hit %v stats %+v",
								i, addr, core, isNT, got, c.stats, want, r.stats)
						}
					}
					requireMatchesRef(t, c, r)
				})
			}
		}
	}
}

// TestRefillIsTouchOfLRU: on valid recency words — a random permutation of
// the ways in the low assoc nibbles, identity above — the full-set refill's
// shift equals touch of the LRU way, for every associativity.
func TestRefillIsTouchOfLRU(t *testing.T) {
	rng := replayRNG(29)
	for assoc := 1; assoc <= 16; assoc++ {
		for i := 0; i < 10000; i++ {
			var ways [16]uint64
			for w := range ways {
				ways[w] = uint64(w)
			}
			for w := assoc - 1; w > 0; w-- {
				j := rng.next() % uint64(w+1)
				ways[w], ways[j] = ways[j], ways[w]
			}
			var order uint64
			for w, v := range ways {
				order |= v << (4 * uint(w))
			}
			lru := order >> (4 * uint(assoc-1)) & 0xf
			if got, want := refill(order, lru, assoc), touch(order, lru); got != want {
				t.Fatalf("assoc %d, order %016x: refill %016x, touch %016x", assoc, order, got, want)
			}
		}
	}
}

// FuzzAccessMatchesTimestampLRU is the same comparison over fuzzer-chosen
// geometry, policy and stream: each stream byte is six bits of line address,
// one bit of core and one NT bit.
func FuzzAccessMatchesTimestampLRU(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(NTBypass), []byte("\x00\x01\x02\x03\x80\x04\x00\x81\x05\x01"))
	f.Add(uint8(16), uint8(3), uint8(NTDemote), []byte("protean code: near-free online code transformations"))
	f.Add(uint8(1), uint8(6), uint8(NTIgnore), []byte{0, 6, 12, 0, 0x86, 6, 0x40, 0xc0, 12})
	f.Add(uint8(3), uint8(2), uint8(NTBypass), []byte{0, 2, 4, 0x80, 6, 0, 0x82, 0x84, 8, 2, 4})
	f.Fuzz(func(t *testing.T, assoc, sets, policy uint8, stream []byte) {
		// At most 16 ways × 3 sets = 48 of the 64 lines fit, so every geometry
		// evicts; 3 sets index by div/mod.
		cfg := refConfig(int(assoc%16)+1, int(sets%3)+1, NTPolicy(policy%3))
		c, r := New(cfg), newRefCache(cfg)
		for i, b := range stream {
			addr, core, nt := uint64(b&63)<<6, int(b>>6&1), b>>7 == 1
			got, want := c.AccessBy(core, addr, nt), r.accessBy(core, addr, nt)
			if got != want || c.stats != r.stats {
				t.Fatalf("%+v access %d (%#02x): hit %v stats %+v, timestamp model hit %v stats %+v",
					cfg, i, b, got, c.stats, want, r.stats)
			}
		}
		requireMatchesRef(t, c, r)
	})
}
