package cache

import "fmt"

// HierarchyConfig sizes a multicore cache hierarchy: a private L1 and L2
// per core and one shared LLC.
type HierarchyConfig struct {
	Cores int
	L1    Config
	L2    Config
	LLC   Config
	// MemLatency is the cycles for a fill from memory.
	MemLatency int
}

// DefaultHierarchy models a small quad-core part in the spirit of the
// paper's AMD Phenom II X4 testbed: private 32 KiB L1 and 256 KiB L2,
// shared 2 MiB LLC. The LLC is deliberately modest so the synthetic
// workloads (working sets of a few MiB) contend the way SPEC-class
// programs contend on a 6 MiB part.
func DefaultHierarchy(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores:      cores,
		L1:         Config{Name: "L1", SizeBytes: 32 << 10, LineSize: 64, Assoc: 8, HitLatency: 1, NT: NTIgnore},
		L2:         Config{Name: "L2", SizeBytes: 256 << 10, LineSize: 64, Assoc: 8, HitLatency: 10, NT: NTIgnore},
		LLC:        Config{Name: "LLC", SizeBytes: 2 << 20, LineSize: 64, Assoc: 16, HitLatency: 36, NT: NTBypass},
		MemLatency: 220,
	}
}

// CoreStats aggregates per-core shared-LLC activity, the signals the
// runtime's extrospection reads ("cache misses or bandwidth usage",
// Section III-B-3).
type CoreStats struct {
	LLCAccesses uint64
	LLCMisses   uint64
}

// Hierarchy is the full multicore cache model. Not safe for concurrent use.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  []*Cache
	llc *Cache
	per []CoreStats
	// latency is the cycles an access served by level 0–2 (L1, L2, LLC) or
	// by memory (3) takes.
	latency [4]int
	// stall is latency/mlp per serving level for the mlp the batched replay
	// paths were last called with (every engine passes the same value on
	// every call, so the divisions happen once). mlp is 0, never a legal
	// value, until first use.
	stall [4]uint64
	mlp   uint64
}

// NewHierarchy builds the hierarchy for cfg.Cores cores.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("cache: hierarchy with %d cores", cfg.Cores))
	}
	h := &Hierarchy{
		cfg:     cfg,
		llc:     New(cfg.LLC),
		per:     make([]CoreStats, cfg.Cores),
		latency: [4]int{cfg.L1.HitLatency, cfg.L2.HitLatency, cfg.LLC.HitLatency, cfg.MemLatency},
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, New(cfg.L1))
		h.l2 = append(h.l2, New(cfg.L2))
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// walk sends one access by core down L1 → L2 → LLC, filling every level it
// misses, and returns the level that served it: 0–2, or 3 for memory.
func (h *Hierarchy) walk(core int, addr uint64, nt bool) int {
	if h.l1[core].Access(addr, nt) {
		return 0
	}
	if h.l2[core].Access(addr, nt) {
		return 1
	}
	h.per[core].LLCAccesses++
	if h.llc.AccessBy(core, addr, nt) {
		return 2
	}
	h.per[core].LLCMisses++
	return 3
}

// Load walks the hierarchy for a read by core and returns the access
// latency in cycles.
func (h *Hierarchy) Load(core int, addr uint64, nt bool) int {
	return h.latency[h.walk(core, addr, nt)]
}

// Store updates the hierarchy for a write-allocate write by core. The
// returned latency models store-buffer absorption: stores cost their L1
// time only, but still disturb cache contents at every level they miss.
func (h *Hierarchy) Store(core int, addr uint64, nt bool) int {
	h.walk(core, addr, nt)
	return 1
}

// Prefetch warms the hierarchy for an upcoming access without stalling.
// A non-temporal prefetch fills the private levels but is tagged NT at the
// shared level (the prefetchnta contract).
func (h *Hierarchy) Prefetch(core int, addr uint64, nt bool) {
	h.walk(core, addr, nt)
}

// AccessKind tags one entry of a batched access list.
type AccessKind uint8

// Batched access kinds.
const (
	// AccessLoad is a demand read; it contributes its level latency to
	// Replay's summed stall.
	AccessLoad AccessKind = iota
	// AccessStore is a write-allocate write (store-buffer absorbed: it
	// disturbs cache contents but adds no stall).
	AccessStore
	// AccessPrefetch warms the hierarchy without stalling.
	AccessPrefetch
)

// Access is one entry of a batched access list: a decoded memory
// instruction's resolved address, ready to replay.
type Access struct {
	Addr uint64
	Kind AccessKind
	NT   bool
}

// Replay walks a batch of accesses through the hierarchy in one call — the
// superblock engine's entry point. The batch replays in order, so cache
// and counter state after Replay is identical to issuing the same
// sequence through Load/Store/Prefetch one call at a time. The return
// value is the summed load stall in cycles: each AccessLoad contributes
// latency/mlp, divided per access (matching the interpreter's
// per-instruction integer rounding); stores and prefetches contribute
// nothing. mlp must be >= 1.
func (h *Hierarchy) Replay(core int, accs []Access, mlp uint64) uint64 {
	stalls := h.stalls(mlp)
	l1 := h.l1[core]
	// The L1 repeated-line fast path is only equivalent when an NT hit at
	// the L1 behaves like an ordinary hit (true for every policy except
	// NTBypass's demote-on-hit); NT accesses otherwise take the full walk.
	ntSafe := l1.cfg.NT != NTBypass
	var stall uint64
	for i := range accs {
		a := &accs[i]
		level := 0
		// Repeated-line fast path, inlined from AccessBy: the previous L1
		// access left exactly this line resident, warm and MRU, so this
		// access is an L1 hit that moves no replacement state, whatever its
		// kind.
		if a.Addr>>l1.lineBits == l1.lastLine && l1.lastIdx >= 0 && (ntSafe || !a.NT) {
			l1.stats.Accesses++
			l1.stats.Hits++
		} else {
			level = h.walk(core, a.Addr, a.NT)
		}
		if a.Kind == AccessLoad {
			stall += stalls[level]
		}
	}
	return stall
}

// ReplayLoads is Replay specialized for a batch of ordinary (non-NT)
// demand loads — the dominant batch shape. Semantics are exactly Replay's
// with every access an AccessLoad with NT false: same walk, same counters,
// same summed stall.
func (h *Hierarchy) ReplayLoads(core int, addrs []uint64, mlp uint64) uint64 {
	stalls := h.stalls(mlp)
	l1 := h.l1[core]
	var stall uint64
	n := len(addrs)
	for i := 0; i < n; {
		// Repeated-line runs (see Replay's fast path): a stretch of k
		// consecutive loads to the previously-touched line are k L1 hits
		// that move no replacement state. Settle the whole stretch with one
		// set of counter bumps — identical end state to k walks.
		if la := addrs[i] >> l1.lineBits; la == l1.lastLine && l1.lastIdx >= 0 {
			j := i + 1
			for j < n && addrs[j]>>l1.lineBits == la {
				j++
			}
			k := uint64(j - i)
			l1.stats.Accesses += k
			l1.stats.Hits += k
			stall += k * stalls[0]
			i = j
			continue
		}
		stall += stalls[h.walk(core, addrs[i], false)]
		i++
	}
	return stall
}

// stalls returns the per-level load stall table for mlp, refreshing it
// when mlp differs from the previous call's.
func (h *Hierarchy) stalls(mlp uint64) *[4]uint64 {
	if mlp != h.mlp {
		h.mlp = mlp
		for level, lat := range h.latency {
			h.stall[level] = uint64(lat) / mlp
		}
	}
	return &h.stall
}

// MaxLatency returns the largest latency any single access can incur —
// the worst level of the walk. Engines use it to bound a superblock's
// worst-case cost.
func (h *Hierarchy) MaxLatency() int {
	m := h.latency[0]
	for _, l := range h.latency[1:] {
		if l > m {
			m = l
		}
	}
	return m
}

// LLC exposes the shared level for occupancy measurements.
func (h *Hierarchy) LLC() *Cache { return h.llc }

// L1 exposes core's private L1.
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }

// L2 exposes core's private L2.
func (h *Hierarchy) L2(core int) *Cache { return h.l2[core] }

// CoreStats returns a snapshot of core's shared-LLC counters.
func (h *Hierarchy) CoreStats(core int) CoreStats { return h.per[core] }

// LLCOccupancy returns each core's share of valid shared-LLC lines (by
// fill attribution). A full-cache walk: use for periodic monitoring, not
// hot paths.
func (h *Hierarchy) LLCOccupancy() []int {
	counts := make([]int, h.cfg.Cores)
	h.llc.OccupancyByOwner(counts)
	return counts
}

// FlushCore evicts core-private state (L1/L2), modelling the cold private
// caches a program sees after a long nap. Shared LLC content is left alone.
func (h *Hierarchy) FlushCore(core int) {
	h.l1[core].Reset()
	h.l2[core].Reset()
}
