package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process-local metrics registry: named counters, gauges and
// histograms, created on first use. All operations are safe for concurrent
// use and every method is nil-safe, so a disabled registry (nil) costs a
// branch per call and instrumentation code never guards.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe:
// a nil registry returns the nil counter, whose Add is free.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		// The zero value is the empty histogram: min/max backfill on the
		// first Observe, so a never-observed histogram exports zeros
		// instead of ±Inf sentinels that would break JSON encoding.
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing float64, updated lock-free. Floats
// rather than ints because several pipeline magnitudes (applied DSS
// savings, discarded savings) are fractional.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter. Nil-safe.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count. Nil-safe (zero).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a last-value metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value. Nil-safe (zero).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket geometry: HDR-style base-2 buckets with histSubPerOct
// sub-buckets per octave, covering positive magnitudes in
// [2^histMinExp, 2^histMaxExp). Values outside clamp into the first/last
// bucket; the exact min/max are tracked separately, so clamped tails only
// coarsen mid-distribution quantiles. 8 sub-buckets per octave bound the
// relative quantile error at 2^(1/8)-1 ≈ 9%, plenty for latency tails,
// while keeping a histogram at ~3 KB of fixed, allocation-free state.
const (
	histSubBits   = 3
	histSubPerOct = 1 << histSubBits
	histMinExp    = -20 // ~1e-6: sub-millisecond when observing milliseconds
	histMaxExp    = 30  // ~1e9: ~12 days of milliseconds
	histNBuckets  = (histMaxExp - histMinExp) * histSubPerOct
)

// histBucketIndex maps a positive value to its bucket: the exponent and the
// top three mantissa bits, read straight from the float's bit pattern — no
// log calls on the Observe path.
func histBucketIndex(v float64) int {
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023
	sub := int(bits >> (52 - histSubBits) & (histSubPerOct - 1))
	idx := (exp-histMinExp)<<histSubBits | sub
	if idx < 0 {
		return 0
	}
	if idx >= histNBuckets {
		return histNBuckets - 1
	}
	return idx
}

// histBucketUpper is the exclusive upper bound of bucket idx:
// 2^exp · (1 + (sub+1)/8).
func histBucketUpper(idx int) float64 {
	exp := histMinExp + idx>>histSubBits
	sub := idx & (histSubPerOct - 1)
	return math.Ldexp(1+float64(sub+1)/histSubPerOct, exp)
}

// Histogram summarises an observed distribution with fixed log-bucketed
// counts: count, sum, exact min/max, and HDR-style base-2 buckets fine
// enough to export tail quantiles (p50/p90/p99/p999). Observe takes one
// short mutex hold and allocates nothing — the bucket array is inline —
// so it is safe on per-request serving paths; a nil histogram is free.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	// buckets counts positive observations by log-scale index
	// (histBucketIndex); zero counts exact zeros and neg counts v < 0
	// (kept as single masses below every positive bucket — pipeline
	// histograms are latencies, rates and counts, where negatives are
	// exceptional).
	buckets [histNBuckets]int64
	zero    int64
	neg     int64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	switch {
	case v == 0:
		h.zero++
	case v < 0:
		h.neg++
	default:
		h.buckets[histBucketIndex(v)]++
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's summary. A
// histogram that never observed anything snapshots to all zeros — never
// ±Inf — so registry snapshots stay JSON-encodable.
type HistogramSnapshot struct {
	Count    int64
	Sum      float64
	Min, Max float64
	Mean     float64
	// P50..P999 are quantiles read off the log buckets: each is the upper
	// bound of the bucket holding the rank, clamped to [Min, Max], so the
	// relative error is bounded by the bucket width (~9%).
	P50, P90, P99, P999 float64
}

// quantileLocked returns the value at rank (1-based) of the bucketed
// distribution. Caller holds h.mu.
func (h *Histogram) quantileLocked(rank int64) float64 {
	if rank <= h.neg {
		return h.min // all negatives collapse to the exact minimum
	}
	cum := h.neg + h.zero
	if rank <= cum {
		return 0
	}
	for i := range h.buckets {
		cum += h.buckets[i]
		if rank <= cum {
			v := histBucketUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Snapshot returns the histogram's current summary. Nil-safe (zeroes).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Mean: h.sum / float64(h.count),
	}
	rank := func(q float64) int64 {
		r := int64(math.Ceil(q * float64(h.count)))
		if r < 1 {
			r = 1
		}
		return r
	}
	s.P50 = h.quantileLocked(rank(0.50))
	s.P90 = h.quantileLocked(rank(0.90))
	s.P99 = h.quantileLocked(rank(0.99))
	s.P999 = h.quantileLocked(rank(0.999))
	return s
}

// HistogramBucket is one cumulative bucket of a histogram export: Count
// observations were <= Upper.
type HistogramBucket struct {
	Upper float64
	Count int64
}

// CumulativeBuckets returns the non-empty buckets of the distribution in
// Prometheus's cumulative form (each count includes all smaller buckets),
// without the implicit +Inf bucket — that is Snapshot().Count. Negative
// observations surface under an le="0" bucket together with exact zeros.
// Nil-safe (nil slice).
func (h *Histogram) CumulativeBuckets() []HistogramBucket {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []HistogramBucket
	cum := h.neg + h.zero
	if cum > 0 {
		out = append(out, HistogramBucket{Upper: 0, Count: cum})
	}
	for i := range h.buckets {
		if h.buckets[i] == 0 {
			continue
		}
		cum += h.buckets[i]
		out = append(out, HistogramBucket{Upper: histBucketUpper(i), Count: cum})
	}
	return out
}

// Snapshot renders the registry as a plain map, suitable for JSON encoding
// (this is what mqoserve's /statsz serves). Histograms export their
// count/mean/min/max and quantiles.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		s := h.Snapshot()
		// Every field of an empty snapshot is exactly zero (never ±Inf),
		// so the map always survives encoding/json — /statsz depends on it
		// (TestEmptyHistogramExportsZeros).
		out[name] = map[string]any{
			"count": s.Count, "mean": s.Mean, "min": s.Min, "max": s.Max,
			"p50": s.P50, "p90": s.P90, "p99": s.P99, "p999": s.P999,
		}
	}
	return out
}

// Summary renders the registry as an aligned, alphabetically sorted
// human-readable table — the "-metrics" output of the CLIs.
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	type line struct{ name, value string }
	lines := make([]line, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		lines = append(lines, line{name, fmt.Sprintf("%.6g", c.Value())})
	}
	for name, g := range r.gauges {
		lines = append(lines, line{name, fmt.Sprintf("%.6g", g.Value())})
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hists[name] = h
	}
	r.mu.Unlock()
	for name, h := range hists {
		s := h.Snapshot()
		lines = append(lines, line{name, fmt.Sprintf("count=%d p50=%.4g p90=%.4g p99=%.4g mean=%.4g min=%.4g max=%.4g",
			s.Count, s.P50, s.P90, s.P99, s.Mean, s.Min, s.Max)})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	width := 0
	for _, l := range lines {
		if len(l.name) > width {
			width = len(l.name)
		}
	}
	var sb strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&sb, "%-*s  %s\n", width, l.name, l.value)
	}
	return sb.String()
}
