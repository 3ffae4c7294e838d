package main

import "repro/internal/cache"

const (
	// cacheLoads is the length of every probe address stream (a sixteenth
	// of it in a smoke run).
	cacheLoads = 1 << 19
	// cacheBatch is the batch a replay call receives, about what one
	// superblock chain defers between control transfers.
	cacheBatch = 32
	// cacheMLP is the machine's default memory-level parallelism.
	cacheMLP = 4
)

// cacheStream is one address-stream class: 8-byte loads over span bytes,
// sequential or uniformly random.
type cacheStream struct {
	name   string
	span   uint64
	random bool
}

// The four classes land, against the default hierarchy (32 KiB L1, 256 KiB
// L2, 2 MiB LLC), on: the repeated-line fast path with a miss every eighth
// load; L1 hits; LLC hits; memory.
var cacheStreams = []cacheStream{
	{"stream", 8 << 20, false},
	{"hot", 16 << 10, true},
	{"llcfit", 1 << 20, true},
	{"random", 64 << 20, true},
}

func (s cacheStream) addrs(seed int64, salt uint64, n int) []uint64 {
	out := make([]uint64, n)
	r := newRNG(seed, salt)
	for i := range out {
		if s.random {
			out[i] = (r.next() % s.span) &^ 7
		} else {
			out[i] = uint64(i) * 8 % s.span
		}
	}
	return out
}

// cacheProbes times the hierarchy's three entry points — batched plain
// loads, batched mixed accesses, the per-call walk — from empty caches.
func (p *prober) cacheProbes() error {
	loads := cacheLoads
	if p.smoke {
		loads /= 16
	}
	perLoad := func(cs float64) float64 { return 1e9 * cs / float64(loads) }
	for i, s := range cacheStreams {
		addrs := s.addrs(p.seed, uint64(i+1), loads)
		var h *cache.Hierarchy
		cs := p.time("cache.ReplayLoads", 3, func() func() {
			h = cache.NewHierarchy(cache.DefaultHierarchy(4))
			return func() {
				for k := 0; k < len(addrs); k += cacheBatch {
					h.ReplayLoads(0, addrs[k:k+cacheBatch], cacheMLP)
				}
			}
		})
		p.set("cache.replay_loads."+s.name+"_ns", perLoad(cs), "ns")
		l1 := h.L1(0).Stats()
		p.set("cache.l1_hit_ratio."+s.name, float64(l1.Hits)/float64(l1.Accesses), "ratio")
		p.set("cache.llc_miss_ratio."+s.name, float64(h.CoreStats(0).LLCMisses)/float64(loads), "ratio")
	}

	// Mixed batch: non-temporal loads with one store in eight over twice
	// the LLC, the shape an NT variant of a streaming host replays.
	r := newRNG(p.seed, 10)
	accs := make([]cache.Access, loads)
	for i := range accs {
		accs[i] = cache.Access{Addr: (r.next() % (4 << 20)) &^ 7, Kind: cache.AccessLoad, NT: true}
		if i%8 == 7 {
			accs[i] = cache.Access{Addr: accs[i].Addr, Kind: cache.AccessStore}
		}
	}
	p.set("cache.replay_mixed.nt_ns", perLoad(p.time("cache.Replay", 3, func() func() {
		h := cache.NewHierarchy(cache.DefaultHierarchy(4))
		return func() {
			for i := 0; i < len(accs); i += cacheBatch {
				h.Replay(0, accs[i:i+cacheBatch], cacheMLP)
			}
		}
	})), "ns")

	random := cacheStreams[3].addrs(p.seed, 11, loads)
	p.set("cache.load_percall.random_ns", perLoad(p.time("cache.Load", 3, func() func() {
		h := cache.NewHierarchy(cache.DefaultHierarchy(4))
		return func() {
			for _, a := range random {
				h.Load(0, a, false)
			}
		}
	})), "ns")

	// Four cores, each random over 1 MiB of its own: 4 MiB against a
	// shared 2 MiB LLC, replayed in interleaved batches.
	var perCore [4][]uint64
	for c := range perCore {
		perCore[c] = cacheStreams[2].addrs(p.seed, uint64(20+c), loads/4)
		for i := range perCore[c] {
			perCore[c][i] += uint64(c+1) << 40
		}
	}
	p.set("cache.shared4.random_ns", perLoad(p.time("cache.ReplayLoads", 3, func() func() {
		h := cache.NewHierarchy(cache.DefaultHierarchy(4))
		return func() {
			for i := 0; i < loads/4; i += cacheBatch {
				for c := range perCore {
					h.ReplayLoads(c, perCore[c][i:i+cacheBatch], cacheMLP)
				}
			}
		}
	})), "ns")

	const news = 16
	p.set("cache.new_us", 1e6*p.time("cache.NewHierarchy", 5, func() func() {
		return func() {
			for i := 0; i < news; i++ {
				cache.NewHierarchy(cache.DefaultHierarchy(4))
			}
		}
	})/news, "us")
	return nil
}
