package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of counters, gauges and histograms.
// Metrics are created on first use and live for the registry's lifetime;
// all operations are safe for concurrent use (evalgen publishes into one
// registry from every parallel compile worker). A nil *Registry is a
// valid no-op sink, as are the nil metrics it hands out.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
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
	g := r.gauges[name]
	if g == nil {
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
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// fold applies to r the metric updates implied by the end of a span named
// name with end attributes attrs (an absent attribute reads as 0). It is
// the one definition of the compile-side metrics: Span.End folds live into
// the registry its context carries, and RollupCompile folds a trace for the
// profile's effort counters, so the two agree by construction.
func (r *Registry) fold(name string, attrs map[string]any) {
	add := func(metric, attr string) { r.Counter(metric).Add(attrI64(attrs, attr)) }
	peak := func(metric, attr string) { r.Gauge(metric).SetMax(attrI64(attrs, attr)) }
	switch name {
	case "sat.solve":
		r.Counter("sat.solves").Add(1)
		add("sat.conflicts", "conflicts")
		add("sat.decisions", "decisions")
		add("sat.propagations", "propagations")
		add("sat.restarts", "restarts")
		add("sat.learnt", "learnt")
		add("sat.solve_ns", "solve_ns")
		peak("cnf.vars", "cnf_vars")
		peak("cnf.clauses", "clauses")
	case "synth":
		peak("circuit.gates", "gates")
		add("cegis.tests", "encoded")
	case "verify":
		peak("circuit.gates", "gates")
		if _, ok := attrs["cex_bits"]; ok {
			r.Histogram("cegis.cex_bits").Observe(attrI64(attrs, "cex_bits"))
		}
	case "cegis.iter":
		r.Counter("cegis.iterations").Add(1)
	case "attempt":
		r.Counter("core.attempts").Add(1)
	case "cegis.sketch":
		for k := range attrs {
			if k == "holes" || k == "hole_bits" || strings.HasPrefix(k, "hole_bits.") {
				r.Gauge("sketch." + k).Set(attrI64(attrs, k))
			}
		}
	case "explain":
		r.Counter("explain.runs").Add(1)
		add("explain.blamed_groups", "blamed_groups")
		switch attrStr(attrs, "outcome") {
		case "error":
			r.Counter("explain.errors").Add(1)
		case "timeout":
			r.Counter("explain.timeouts").Add(1)
		case "infeasible":
			if attrBool(attrs, "minimal") {
				r.Counter("explain.minimal_cores").Add(1)
			}
		}
	}
}

// Counter is a monotonically increasing 64-bit metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable 64-bit level metric.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta — the idiom for level gauges tracking
// concurrent activity (in-flight compile jobs).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger — the idiom for peaks (peak
// CNF variables, peak circuit gates).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates a distribution of non-negative integer
// observations in power-of-two buckets: bucket 0 holds zeros, bucket i
// holds values in [2^(i-1), 2^i). Negative observations clamp to zero.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      int64
	min, max int64
	buckets  [65]int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
}

// Quantiles estimates the given quantiles (each in [0, 1]) from the
// power-of-two buckets, one estimate per requested q, in order. Within a
// bucket the distribution is assumed uniform, so estimates are exact only
// at bucket boundaries and otherwise carry up-to-2x bucket resolution —
// plenty for the p50/p95/p99 operational summaries they feed (/healthz),
// which care about orders of magnitude, not microseconds. The overall
// min/max clamp the extreme buckets so a single-value histogram reports
// that value at every quantile. An empty (or nil) histogram reports 0s.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if h == nil {
		return out
	}
	h.mu.Lock()
	count, min, max := h.count, h.min, h.max
	var buckets [65]int64
	buckets = h.buckets
	h.mu.Unlock()
	if count == 0 {
		return out
	}
	for qi, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		// rank is the 1-based index of the target observation in sorted
		// order (nearest-rank definition).
		rank := int64(q*float64(count) + 0.5)
		if rank < 1 {
			rank = 1
		}
		if rank > count {
			rank = count
		}
		cum := int64(0)
		for i, n := range buckets {
			if n == 0 {
				continue
			}
			if cum+n < rank {
				cum += n
				continue
			}
			lo := float64(0)
			if i > 0 {
				lo = float64(int64(1) << uint(i-1))
			}
			hi := float64(bucketUpper(i))
			// Clamp the extreme buckets to the observed range.
			if float64(min) > lo {
				lo = float64(min)
			}
			if float64(max) < hi {
				hi = float64(max)
			}
			if hi < lo {
				hi = lo
			}
			frac := (float64(rank-cum) - 0.5) / float64(n)
			out[qi] = lo + frac*(hi-lo)
			break
		}
	}
	return out
}

// raw copies the histogram's internal state for exposition formats that
// need the power-of-two buckets directly (see WritePrometheus).
func (h *Histogram) raw() (count, sum int64, buckets [65]int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, h.buckets
}

// HistSnapshot is a point-in-time copy of a histogram's state.
type HistSnapshot struct {
	Count, Sum, Min, Max int64
	Mean                 float64
	// Buckets maps a human-readable range label ("0", "1", "2-3",
	// "4-7", …) to its observation count; empty buckets are omitted.
	Buckets map[string]int64
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	s.Buckets = map[string]int64{}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		s.Buckets[bucketLabel(i)] = n
	}
	return s
}

func bucketLabel(i int) string {
	switch i {
	case 0:
		return "0"
	case 1:
		return "1"
	}
	lo := int64(1) << uint(i-1)
	hi := (int64(1) << uint(i)) - 1
	return fmt.Sprintf("%d-%d", lo, hi)
}

// Snapshot returns an expvar-style flat map of every metric's current
// value: counters and gauges as int64, histograms as HistSnapshot. The map
// is JSON-marshalable, which is how cmd/chipmunk publishes it on
// /debug/vars.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// String renders the registry one metric per line, sorted by name, for
// the CLI -stats reports.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		switch v := snap[name].(type) {
		case HistSnapshot:
			fmt.Fprintf(&sb, "%-28s count=%d mean=%.1f min=%d max=%d\n", name, v.Count, v.Mean, v.Min, v.Max)
		default:
			fmt.Fprintf(&sb, "%-28s %v\n", name, v)
		}
	}
	return sb.String()
}
