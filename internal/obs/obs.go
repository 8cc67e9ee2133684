// Package obs is the observability layer of the synthesis stack: a
// zero-dependency (standard library only) tracing and metrics subsystem
// that makes the cost structure of a Chipmunk compilation visible.
//
// The paper's dominant cost is CEGIS solve time — Table 2 spans seven
// seconds to an hour per mutant — and understanding *where* that time goes
// (which deepening attempt, which CEGIS iteration, which SAT solve) is the
// prerequisite for every optimisation toward the "fast as the hardware
// allows" north star. The package provides:
//
//   - hierarchical spans (compile → deepening attempt → CEGIS iteration →
//     synth/verify phase → SAT solve) with start/stop timestamps and
//     key/value attributes, propagated through context.Context;
//   - a metrics Registry of named counters, gauges and histograms (SAT
//     conflicts, decisions, propagations, CNF clause/variable counts,
//     circuit gate counts, CEGIS iterations, counterexample widths, sketch
//     hole inventories), folded from span ends by Registry.fold. A
//     registry needs no tracer;
//   - point-in-time notes (Note) under the current span, for milestones
//     inside one long span such as SAT progress during a multi-minute
//     solve;
//   - exporters: a JSON-lines trace dump, a human-readable summary tree,
//     and an expvar-style snapshot map (see export.go).
//
// Everything is nil-safe: a nil *Tracer, *Registry, *Span, *Counter,
// *Gauge or *Histogram is a valid no-op sink, and StartSpan returns a nil
// span when the context carries neither a tracer nor a registry, so
// instrumented code pays (almost) nothing when observability is not
// requested — call sites never need nil checks.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value pair attached to a span. Values should be strings,
// bools, integers or floats so they survive a JSON round trip (integers
// decode back as float64 — see ReadRecords).
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{k, v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{k, int64(v)} }

// Int64 builds a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{k, v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{k, v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{k, v} }

// Tracer records hierarchical spans and notes. It retains every record
// in memory (compilations emit at most a few thousand spans) for
// Summary, Records and WriteJSONL, and fans each record out to live
// subscribers (Subscribe) as it is emitted. Safe for concurrent use; a
// nil *Tracer discards everything.
type Tracer struct {
	mu      sync.Mutex
	records []Record
	nextID  int64
	subs    map[int64]func(Record)
	nextSub int64
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Subscription is a handle to a live record feed registered with
// Subscribe. Close detaches it; a nil *Subscription no-ops.
type Subscription struct {
	t  *Tracer
	id int64
}

// Subscribe registers fn to receive every record the tracer emits from
// now on, in emission order. With replay, records emitted before the
// subscription are delivered first, so a mid-compile subscriber still
// sees the whole span tree. fn is invoked synchronously under the
// tracer's lock: it must be fast and must not call back into the tracer
// (enqueue into your own buffer and return — see internal/obs/flight and
// the server's SSE fan-out for the intended pattern).
func (t *Tracer) Subscribe(fn func(Record), replay bool) *Subscription {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.subs == nil {
		t.subs = map[int64]func(Record){}
	}
	t.nextSub++
	id := t.nextSub
	t.subs[id] = fn
	if replay {
		for _, rec := range t.records {
			fn(rec)
		}
	}
	return &Subscription{t: t, id: id}
}

// Close detaches the subscription; records emitted afterwards are no
// longer delivered. Closing twice is a no-op. Must not be called from
// inside the subscription's own callback.
func (s *Subscription) Close() {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	delete(s.t.subs, s.id)
	s.t.mu.Unlock()
}

// Span is one timed region of work. A nil *Span is a valid no-op, which is
// what StartSpan returns when the context carries neither a tracer nor a
// registry.
type Span struct {
	t    *Tracer
	reg  *Registry
	name string
	id   int64

	ended atomic.Bool
}

func (t *Tracer) emit(rec Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.records = append(t.records, rec)
	for _, fn := range t.subs {
		fn(rec)
	}
}

// point emits a start or note record under the given parent id
// (0 = root) with a fresh id, and returns that id.
func (t *Tracer) point(typ string, parent int64, name string, attrs []Attr) int64 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.emit(Record{
		Type:   typ,
		ID:     id,
		Parent: parent,
		Name:   name,
		TimeNS: time.Now().UnixNano(),
		Attrs:  attrMap(attrs),
	})
	return id
}

// StartRoot begins a span with no parent, for callers without a context
// chain (tests, tools).
func (t *Tracer) StartRoot(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, id: t.point(RecordStart, 0, name, attrs)}
}

// End stops the span with the given attributes: it folds them into the
// span's registry, then emits the end record on its tracer. Ending twice
// is a no-op.
func (s *Span) End(attrs ...Attr) {
	if s == nil || s.ended.Swap(true) {
		return
	}
	all := attrMap(attrs)
	if s.reg != nil {
		s.reg.fold(s.name, all)
	}
	if s.t != nil {
		s.t.emit(Record{
			Type:   RecordEnd,
			ID:     s.id,
			TimeNS: time.Now().UnixNano(),
			Attrs:  all,
		})
	}
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// --- Context propagation ---------------------------------------------------

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	metricsKey
)

// ContextWithTracer installs a tracer; spans started via StartSpan on the
// returned context (and its descendants) are recorded there.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the tracer installed in ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// ContextWithMetrics installs a metrics registry.
func ContextWithMetrics(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, metricsKey, r)
}

// MetricsFrom returns the registry installed in ctx, or nil. The nil
// result is a valid no-op sink.
func MetricsFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(metricsKey).(*Registry)
	return r
}

// SpanFrom returns the innermost span started on ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan begins a span named name as a child of the context's current
// span, on the context's tracer, folding its end into the context's
// registry. With neither installed it returns (ctx, nil) — the nil span
// no-ops, costing nothing.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t, reg := TracerFrom(ctx), MetricsFrom(ctx)
	if t == nil && reg == nil {
		return ctx, nil
	}
	s := &Span{t: t, reg: reg, name: name}
	if t != nil {
		s.id = t.point(RecordStart, currentID(ctx), name, attrs)
	}
	return context.WithValue(ctx, spanKey, s), s
}

// currentID is the id of the context's current span, or 0 (root).
func currentID(ctx context.Context) int64 {
	if p := SpanFrom(ctx); p != nil {
		return p.id
	}
	return 0
}

// Note records a point event named name under the context's current
// span: a milestone inside a long span, such as a SAT progress snapshot
// in the middle of a solve. Notes take ids from the same sequence as
// spans but have no end. When no tracer is installed it does nothing.
func Note(ctx context.Context, name string, attrs ...Attr) {
	t := TracerFrom(ctx)
	if t == nil {
		return
	}
	t.point(RecordNote, currentID(ctx), name, attrs)
}
