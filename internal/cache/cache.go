// Package cache implements the set-associative cache hierarchy the simulated
// machine runs against.
//
// This is the substrate where the paper's mechanism acts: co-running
// programs share the last-level cache, so a contentious program evicts a
// sensitive program's lines and degrades its progress rate. Non-temporal
// hints change how a program's fills are treated at the shared level —
// bypassing allocation or inserting at LRU — which reduces the pressure it
// exerts without (much) hurting itself, exactly the lever PC3D searches over.
package cache

import (
	"fmt"
	"math/bits"
)

// NTPolicy selects how a level treats non-temporal fills.
type NTPolicy int

// Non-temporal fill policies.
const (
	// NTIgnore treats NT accesses like ordinary ones (private levels keep
	// NT lines: the data is still about to be used once).
	NTIgnore NTPolicy = iota
	// NTBypass does not allocate on an NT miss and demotes the line to LRU
	// on an NT hit. This is the default shared-LLC policy and the strongest
	// pressure reduction.
	NTBypass
	// NTDemote allocates NT fills at the LRU position instead of MRU, so
	// they are the next victims. A gentler alternative used in ablations.
	NTDemote
)

func (p NTPolicy) String() string {
	switch p {
	case NTIgnore:
		return "ignore"
	case NTBypass:
		return "bypass"
	case NTDemote:
		return "demote"
	}
	return fmt.Sprintf("ntpolicy(%d)", int(p))
}

// Config describes one cache level.
type Config struct {
	Name string
	// SizeBytes must be a multiple of LineSize*Assoc.
	SizeBytes int
	LineSize  int
	Assoc     int
	// HitLatency is the cycles to serve a hit at this level.
	HitLatency int
	// NT selects the non-temporal fill policy.
	NT NTPolicy
}

// Stats counts events at one level.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// NTBypassed counts NT misses that skipped allocation.
	NTBypassed uint64
	// NTDemoted counts NT fills or hits inserted/moved to LRU.
	NTDemoted uint64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Sub returns the event-count delta s - prev.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Accesses:   s.Accesses - prev.Accesses,
		Hits:       s.Hits - prev.Hits,
		Misses:     s.Misses - prev.Misses,
		Evictions:  s.Evictions - prev.Evictions,
		NTBypassed: s.NTBypassed - prev.NTBypassed,
		NTDemoted:  s.NTDemoted - prev.NTDemoted,
	}
}

// Cache is one set-associative level. Not safe for concurrent use; the
// machine is single-threaded by design.
//
// Line state is stored structure-of-arrays (parallel tag/owner slices
// indexed way-major within each set, with the valid bit folded into the tag
// word) rather than as a slice of line structs: the hit scan — the hottest
// loop in the whole simulator — then reads a contiguous run of eight or
// sixteen tag words, one or two host cache lines, instead of striding
// through 32-byte structs. Replacement state is two words per set (order,
// cold), not a timestamp per line, so a hit writes one word and a fill
// finds its victim without a second scan.
type Cache struct {
	cfg     Config
	numSets uint64
	// pow2 set counts index with mask+shift; a non-power-of-two geometry
	// falls back to div/mod. Identical results either way.
	pow2     bool
	setMask  uint64
	setShift uint
	lineBits uint
	assoc    int
	// Way-major line state: set s occupies [s*assoc, (s+1)*assoc).
	// tags holds (tag<<1)|1 for valid lines and 0 for free ways, so the hit
	// scan compares against a single contiguous array. Ways fill in index
	// order and only Reset frees them, so a set's free ways are a suffix: a
	// set is full when its last way is, and otherwise the fill target is
	// its first zero tag. A per-line invalidate would break this invariant.
	tags []uint64
	// order holds one recency word per set: a permutation of the way
	// indices, one nibble each, most recently used in the low nibble (hence
	// Assoc <= 16). Nibbles >= assoc never leave the high positions, so the
	// LRU way is nibble assoc-1.
	order []uint64
	// cold holds one mask per set: bit w is set while way w holds a line
	// demoted by a non-temporal access (an NT hit under NTBypass, an NT
	// fill under NTDemote). Cold lines are victims before any warm line,
	// lowest way first, and their position in order is stale until an
	// ordinary access warms them again. NTIgnore levels never touch it.
	cold []uint16
	// owner is the core that filled the line (occupancy attribution).
	owners []int8
	stats  Stats
	// lastLine/lastIdx memoize the line, and its way, that the previous
	// access left resident, warm and most recently used (lastIdx < 0 after
	// a demoting access, an NT-bypass miss or Reset: no such line). An
	// access that repeats the previous line address is a guaranteed hit
	// that changes no replacement state — nothing has touched this level
	// in between — which turns the streaming-access common case (several
	// consecutive accesses per 64-byte line) into one compare and two
	// counter bumps.
	lastLine uint64
	lastIdx  int
}

// New builds a cache level. It panics on a malformed geometry (configs are
// static test/bench fixtures, not user input).
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache %q: non-positive geometry %+v", cfg.Name, cfg))
	}
	if cfg.Assoc > 16 {
		panic(fmt.Sprintf("cache %q: associativity %d exceeds the 16 ways a recency word orders", cfg.Name, cfg.Assoc))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %q: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	if cfg.SizeBytes%(cfg.LineSize*cfg.Assoc) != 0 {
		panic(fmt.Sprintf("cache %q: size %d not divisible by line*assoc", cfg.Name, cfg.SizeBytes))
	}
	numSets := cfg.SizeBytes / (cfg.LineSize * cfg.Assoc)
	c := &Cache{
		cfg:     cfg,
		numSets: uint64(numSets),
		assoc:   cfg.Assoc,
		tags:    make([]uint64, numSets*cfg.Assoc),
		order:   make([]uint64, numSets),
		owners:  make([]int8, numSets*cfg.Assoc),
		lastIdx: -1,
	}
	for i := range c.order {
		c.order[i] = orderIdentity
	}
	if cfg.NT != NTIgnore {
		c.cold = make([]uint16, numSets)
	}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.lineBits++
	}
	if n := uint64(numSets); n&(n-1) == 0 {
		c.pow2 = true
		c.setMask = n - 1
		for s := n; s > 1; s >>= 1 {
			c.setShift++
		}
	}
	return c
}

// Stats returns a snapshot of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.owners[i] = 0
	}
	for i := range c.order {
		c.order[i] = orderIdentity
	}
	for i := range c.cold {
		c.cold[i] = 0
	}
	c.stats = Stats{}
	c.lastLine = 0
	c.lastIdx = -1
}

const (
	// orderIdentity is the recency word of an empty set: nibble i holds i.
	orderIdentity = 0xfedcba9876543210
	nibbleLow     = 0x1111111111111111
	nibbleHigh    = 0x8888888888888888
)

// touch returns recency word order with way w moved to the front: the
// nibbles ahead of w slide up one place and w takes the low nibble.
// Branch-free. XOR with w in every nibble zeroes exactly w's nibble; the
// zero-nibble test can flag falsely only above a true zero, and the lowest
// flag is the one taken.
func touch(order, w uint64) uint64 {
	x := order ^ w*nibbleLow
	sh := uint(bits.TrailingZeros64((x-nibbleLow)&^x&nibbleHigh)) & 60
	ahead := uint64(1)<<sh - 1
	return order&^(ahead<<4|0xf) | order&ahead<<4 | w
}

// refill is touch(order, w) for w the LRU way of an assoc-way set — nibble
// assoc-1 — as one shift: every used nibble below w's slides up one place.
func refill(order, w uint64, assoc int) uint64 {
	m := ^uint64(0) >> (64 - 4*uint(assoc))
	return order&^m | (order<<4|w)&m
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> c.lineBits
	if c.pow2 {
		return lineAddr & c.setMask, lineAddr >> c.setShift
	}
	return lineAddr % c.numSets, lineAddr / c.numSets
}

// Access performs a lookup, allocating on miss per the NT policy, and
// reports whether it hit.
func (c *Cache) Access(addr uint64, nt bool) bool {
	return c.AccessBy(0, addr, nt)
}

// AccessBy is Access with fill-owner attribution: filled lines are tagged
// with the requesting core so occupancy can be attributed per core — the
// signal a shared-cache monitor (UMON-style) would expose.
func (c *Cache) AccessBy(core int, addr uint64, nt bool) bool {
	c.stats.Accesses++
	lineAddr := addr >> c.lineBits
	// bypass: this access demotes the line on a hit and does not allocate
	// on a miss.
	bypass := nt && c.cfg.NT == NTBypass
	// Repeated-line fast path: the previous access left exactly this line
	// resident, warm and MRU, and nothing has accessed this level since, so
	// it is a hit that moves no replacement state.
	if lineAddr == c.lastLine && c.lastIdx >= 0 && !bypass {
		c.stats.Hits++
		return true
	}
	var set, tag uint64
	if c.pow2 {
		set, tag = lineAddr&c.setMask, lineAddr>>c.setShift
	} else {
		set, tag = lineAddr%c.numSets, lineAddr/c.numSets
	}
	want := tag<<1 | 1
	lo := int(set) * c.assoc
	hi := lo + c.assoc
	tags := c.tags[lo:hi:hi]
	for w := range tags {
		if tags[w] == want {
			c.stats.Hits++
			c.settle(set, w, lineAddr, bypass)
			return true
		}
	}
	c.stats.Misses++
	if bypass {
		c.stats.NTBypassed++
		// The line is not resident; poison the memo.
		c.lastIdx = -1
		return false
	}
	demote := nt && c.cfg.NT == NTDemote
	w := len(tags) - 1
	if tags[w] == 0 {
		// Free ways are a suffix: fill the first of them.
		for w > 0 && tags[w-1] == 0 {
			w--
		}
	} else {
		// Full set. The victim is the timestamp model's minimum (stamp,
		// way): warm lines carry distinct stamps, so their order is the
		// permutation in order; cold lines all carry stamp zero, so they go
		// first, lowest way first.
		c.stats.Evictions++
		if c.cold != nil && c.cold[set] != 0 {
			w = bits.TrailingZeros16(c.cold[set])
		} else {
			w = int(c.order[set] >> (4 * uint(w)) & 0xf)
			if !demote {
				// The LRU way refills warm and MRU, and no way is cold:
				// settle's update is one shift.
				tags[w] = want
				c.owners[lo+w] = int8(core)
				c.order[set] = refill(c.order[set], uint64(w), len(tags))
				c.lastLine, c.lastIdx = lineAddr, w
				return false
			}
		}
	}
	tags[w] = want
	c.owners[lo+w] = int8(core)
	c.settle(set, w, lineAddr, demote)
	return false
}

// settle records how an access leaves way w of set: demoted (cold, the
// set's next victim, memo poisoned) or warm, MRU and memoised.
func (c *Cache) settle(set uint64, w int, lineAddr uint64, demote bool) {
	if demote {
		c.cold[set] |= 1 << uint(w)
		c.stats.NTDemoted++
		c.lastIdx = -1
		return
	}
	c.order[set] = touch(c.order[set], uint64(w))
	if c.cold != nil {
		c.cold[set] &^= 1 << uint(w)
	}
	c.lastLine, c.lastIdx = lineAddr, w
}

// OccupancyByOwner counts valid lines per filling core (indices beyond the
// slice length are ignored). A full-cache walk: measurement use only.
func (c *Cache) OccupancyByOwner(counts []int) {
	for i := range counts {
		counts[i] = 0
	}
	for i, t := range c.tags {
		if o := c.owners[i]; t&1 != 0 && int(o) < len(counts) && o >= 0 {
			counts[o]++
		}
	}
}

// Probe reports whether addr is resident without touching LRU state or
// counters. Tests and occupancy measurements use it.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	want := tag<<1 | 1
	lo := int(set) * c.assoc
	for i := lo; i < lo+c.assoc; i++ {
		if c.tags[i] == want {
			return true
		}
	}
	return false
}

// ValidLines counts all valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t&1 != 0 {
			n++
		}
	}
	return n
}
