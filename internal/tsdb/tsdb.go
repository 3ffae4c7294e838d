// Package tsdb is a bounded, deterministic time-series store for the fleet
// observability plane. At every fleet decision-epoch barrier the coordinator
// samples each registered counter, gauge, and histogram quantile into a
// per-series ring buffer stamped with (epoch, simulated seconds) — never
// wall clock. All iteration orders are name-sorted and all floats render via
// telemetry.FormatFloat, so exports are byte-identical at any worker count.
//
// The store is single-writer by construction: only the epoch coordinator
// (which runs the barrier single-threaded) samples or observes. Readers that
// race the run (the live scrape surface) must snapshot under the fleet's
// coordinator lock, same as the contend status.
package tsdb

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Point is one sample: the value of a series at a decision-epoch barrier.
type Point struct {
	Epoch int     // 1-based decision epoch
	T     float64 // simulated seconds at the barrier
	V     float64
}

// Config sizes the store.
type Config struct {
	// Capacity bounds each series' ring; the oldest points drop first.
	// Default 1024 epochs.
	Capacity int
	// Quantiles are sampled from every registered histogram as derived
	// series named "<hist>:p<q*100>". Default 0.5, 0.95, 0.99.
	Quantiles []float64
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.Quantiles == nil {
		c.Quantiles = []float64{0.5, 0.95, 0.99}
	}
	return c
}

// series is a bounded ring of points, oldest dropped first.
type series struct {
	pts   []Point
	start int
}

func (s *series) push(cap int, p Point) {
	if len(s.pts) < cap {
		s.pts = append(s.pts, p)
		return
	}
	s.pts[s.start] = p
	s.start = (s.start + 1) % cap
}

// all returns the retained points oldest-first.
func (s *series) all() []Point {
	out := make([]Point, 0, len(s.pts))
	out = append(out, s.pts[s.start:]...)
	out = append(out, s.pts[:s.start]...)
	return out
}

// at returns the value at exactly the given epoch, searching newest-first
// (barrier sampling appends one point per epoch, so this is a short scan).
func (s *series) at(epoch int) (Point, bool) {
	pts := s.all()
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].Epoch == epoch {
			return pts[i], true
		}
		if pts[i].Epoch < epoch {
			break
		}
	}
	return Point{}, false
}

// Store holds every series. Not internally locked — see the package comment
// for the single-writer contract.
type Store struct {
	cfg       Config
	series    map[string]*series
	lastEpoch int
	lastT     float64
}

// New builds an empty store.
func New(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), series: make(map[string]*series)}
}

// Observe appends one point to a series, creating it on first use. Callers
// must observe in epoch order (the barrier does).
func (d *Store) Observe(name string, p Point) {
	s := d.series[name]
	if s == nil {
		s = &series{}
		d.series[name] = s
	}
	s.push(d.cfg.Capacity, p)
	if p.Epoch > d.lastEpoch {
		d.lastEpoch = p.Epoch
		d.lastT = p.T
	}
}

// quantLabel renders 0.95 as "p95", 0.999 as "p99.9".
func quantLabel(q float64) string {
	return "p" + telemetry.FormatFloat(math.Round(q*1000)/10)
}

// Sample captures every counter, gauge, and histogram quantile visible in
// regs at one epoch barrier. Values are summed (counters, gauges) or merged
// bucket-wise (histograms) across the registries in the order given — pass
// the fleet rollup first and the per-server registries in index order so
// the result is independent of worker interleaving. Histogram quantiles
// with no observations (NaN) are skipped, deterministically.
func (d *Store) Sample(epoch int, t float64, regs ...*telemetry.Registry) {
	counters := make(map[string]uint64)
	gauges := make(map[string]float64)
	hists := make(map[string]*telemetry.Histogram)
	for _, r := range regs {
		r.EachCounter(func(name string, v uint64) { counters[name] += v })
		r.EachGauge(func(name string, v float64) { gauges[name] += v })
		r.EachHistogram(func(name string, h *telemetry.Histogram) {
			if dst := hists[name]; dst != nil {
				dst.Merge(h)
			} else {
				hists[name] = h.Clone()
			}
		})
	}
	for _, name := range sortedKeys(counters) {
		d.Observe(name, Point{Epoch: epoch, T: t, V: float64(counters[name])})
	}
	for _, name := range sortedKeys(gauges) {
		d.Observe(name, Point{Epoch: epoch, T: t, V: gauges[name]})
	}
	for _, name := range sortedKeys(hists) {
		for _, q := range d.cfg.Quantiles {
			v := hists[name].Quantile(q)
			if math.IsNaN(v) {
				continue
			}
			d.Observe(name+":"+quantLabel(q), Point{Epoch: epoch, T: t, V: v})
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Names returns all series names, sorted.
func (d *Store) Names() []string {
	return sortedKeys(d.series)
}

// LastEpoch returns the newest epoch observed (0 before any sample).
func (d *Store) LastEpoch() int {
	return d.lastEpoch
}

// Range returns the retained points of a series with from <= Epoch <= to,
// oldest first.
func (d *Store) Range(name string, from, to int) []Point {
	if d.series[name] == nil {
		return nil
	}
	var out []Point
	for _, p := range d.series[name].all() {
		if p.Epoch >= from && p.Epoch <= to {
			out = append(out, p)
		}
	}
	return out
}

// Delta returns V(epoch) − V(epoch−window). A window start before the
// series' first retained sample uses an implicit zero origin — exact for
// cumulative counters sampled from the run's start (they begin at zero),
// approximate only if the ring has already dropped points. Returns false
// when the series has no point at the end epoch.
func (d *Store) Delta(name string, epoch, window int) (float64, bool) {
	if d.series[name] == nil || window <= 0 {
		return 0, false
	}
	end, ok := d.series[name].at(epoch)
	if !ok {
		return 0, false
	}
	if start, ok := d.series[name].at(epoch - window); ok {
		return end.V - start.V, true
	}
	return end.V, true
}

// writePoints renders one series' points as a JSON array with fixed field
// order.
func writePoints(b *strings.Builder, pts []Point) {
	b.WriteString("[")
	for i, p := range pts {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(b, `{"e":%d,"t":%s,"v":%s}`, p.Epoch,
			telemetry.FormatFloat(p.T), telemetry.FormatFloat(p.V))
	}
	b.WriteString("]")
}

// WriteJSON exports every series, names sorted, hand-built for byte
// determinism.
func (d *Store) WriteJSON(w io.Writer) error {
	return d.writeJSON(w, 0)
}

// WriteWindowJSON exports only each series' trailing lastN epochs (relative
// to the store's newest epoch) — the flight recorder's trailing window.
func (d *Store) WriteWindowJSON(w io.Writer, lastN int) error {
	if lastN <= 0 {
		return d.writeJSON(w, 0)
	}
	return d.writeJSON(w, d.LastEpoch()-lastN)
}

func (d *Store) writeJSON(w io.Writer, afterEpoch int) error {
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, `  "last_epoch": %d,`+"\n", d.lastEpoch)
	fmt.Fprintf(&b, `  "last_t_seconds": %s,`+"\n", telemetry.FormatFloat(d.lastT))
	b.WriteString(`  "series": {`)
	first := true
	for _, name := range d.Names() {
		pts := d.series[name].all()
		if afterEpoch > 0 {
			kept := pts[:0:0]
			for _, p := range pts {
				if p.Epoch > afterEpoch {
					kept = append(kept, p)
				}
			}
			pts = kept
		}
		if len(pts) == 0 {
			continue
		}
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(&b, "\n    %s: ", telemetry.JSONString(name))
		writePoints(&b, pts)
	}
	b.WriteString("\n  }\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
