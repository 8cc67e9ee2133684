// Package flight is a per-job flight recorder: a bounded ring buffer of
// the most recent observability events of one compilation, kept cheaply
// on the happy path and dumped only when something goes wrong.
//
// The paper's CEGIS solve times are heavy-tailed (Table 2 spans seconds
// to an hour), so the interesting jobs — the ones that time out or prove
// infeasible — are exactly the ones whose trace nobody asked for in
// advance. A Recorder subscribes to a job's obs.Tracer and records every
// span start/end (compile → attempt → cegis.iter → synth/verify →
// sat.solve) and every note (sat.progress snapshots inside long solves).
// The ring keeps only the last N entries, so a multi-minute solve costs
// a fixed few KB of memory and the dump always answers "what was the job
// doing when it died".
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/obs"
)

// DefaultCapacity is the ring size used when New is given 0.
const DefaultCapacity = 256

// Entry is one flight-recorder event, a copy of one tracer record: Kind
// is the record type ("start", "end" or "note") and Span its id, so a
// dump can be correlated with a full JSONL trace.
type Entry struct {
	// Seq is the entry's position in the recorder's full history,
	// starting at 0; gaps at the front of a dump reveal how much the
	// ring dropped.
	Seq    uint64         `json:"seq"`
	TimeNS int64          `json:"t"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name,omitempty"`
	Span   int64          `json:"span,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Recorder is a bounded ring of Entries. Safe for concurrent use; a nil
// *Recorder is a valid no-op sink.
type Recorder struct {
	mu   sync.Mutex
	cap  int
	ring []Entry // oldest at head
	head int
	next uint64 // total entries ever recorded
	sub  *obs.Subscription
}

// New returns a recorder keeping the last capacity entries (0 means
// DefaultCapacity).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity}
}

// Attach subscribes the recorder to a tracer, replaying any records the
// tracer already holds so a recorder attached just after a compile
// begins still sees its opening spans. Only one tracer may be attached
// at a time.
func (r *Recorder) Attach(t *obs.Tracer) {
	if r == nil {
		return
	}
	r.Close()
	sub := t.Subscribe(func(rec obs.Record) {
		r.add(Entry{TimeNS: rec.TimeNS, Kind: rec.Type, Name: rec.Name, Span: rec.ID, Attrs: rec.Attrs})
	}, true)
	r.mu.Lock()
	r.sub = sub
	r.mu.Unlock()
}

// Close detaches the recorder from its tracer; the recorded tail remains
// readable.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	sub := r.sub
	r.sub = nil
	r.mu.Unlock()
	sub.Close()
}

func (r *Recorder) add(e Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Seq = r.next
	r.next++
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, e)
		return
	}
	r.ring[r.head] = e
	r.head = (r.head + 1) % r.cap
}

// Tail returns a copy of the ring's contents, oldest first.
func (r *Recorder) Tail() []Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	out = append(out, r.ring[:r.head]...)
	return out
}

// Dropped reports how many entries the ring has discarded.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - uint64(len(r.ring))
}

// WriteJSONL dumps the tail as JSON lines — the postmortem artifact the
// server writes into a job's trace directory on timeout, failure, or an
// infeasible verdict.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, e := range r.Tail() {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("flight: marshal entry %d: %w", e.Seq, err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
