package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// JobEvent is one frame of a job's live event stream (GET
// /jobs/{id}/events, Server-Sent Events). Span and note events mirror
// the job's tracer records: phase transitions (compile/attempt/portfolio
// spans), CEGIS iterations (cegis.iter span ends carry outcome and
// iteration attrs), and sat.progress notes from inside long solves
// (Span is the note's own id; its parent is the sat.solve span, which
// the event does not carry). The terminal "done" event carries
// the job's final status (which reports cache hit/miss and the portfolio
// winner) and closes the stream.
type JobEvent struct {
	JobID string `json:"job_id"`
	// Seq numbers events per job; a gap after Dropped>0 shows where a
	// slow consumer's queue shed load.
	Seq  uint64 `json:"seq"`
	Type string `json:"type"` // "state", "span_start", "span_end", "note", "done"
	// Name is the state ("queued", "running"), span, or note name.
	Name   string         `json:"name,omitempty"`
	Span   int64          `json:"span,omitempty"`
	TimeNS int64          `json:"t,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	// Dropped counts events this subscriber lost to drop-oldest
	// backpressure before this one was delivered.
	Dropped uint64     `json:"dropped,omitempty"`
	Status  *JobStatus `json:"status,omitempty"`
}

// subQueueDepth bounds each SSE subscriber's event queue; a consumer
// that cannot keep up loses the oldest undelivered events rather than
// stalling the compile or growing without bound.
const subQueueDepth = 256

// feed fans one job's events out to any number of subscribers. It exists
// for the job's whole life (subscribing to a still-queued job works —
// events start flowing when the job does) and is closed exactly once
// with the job's final status.
type feed struct {
	jobID string

	mu    sync.Mutex
	seq   uint64
	subs  map[*feedSub]struct{}
	done  bool
	final *JobStatus
}

func newFeed(jobID string) *feed {
	return &feed{jobID: jobID, subs: map[*feedSub]struct{}{}}
}

// publish fans an event out to every subscriber, dropping each
// subscriber's oldest queued event when its bounded queue is full.
func (f *feed) publish(typ, name string, span int64, timeNS int64, attrs map[string]any) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	ev := JobEvent{JobID: f.jobID, Seq: f.seq, Type: typ, Name: name, Span: span, TimeNS: timeNS, Attrs: attrs}
	f.seq++
	for sub := range f.subs {
		sub.push(ev)
	}
}

// publishRecord translates one tracer record into a span or note event.
func (f *feed) publishRecord(rec obs.Record) {
	if f == nil {
		return
	}
	typ := "span_start"
	switch rec.Type {
	case obs.RecordEnd:
		typ = "span_end"
	case obs.RecordNote:
		typ = "note"
	}
	f.publish(typ, rec.Name, rec.ID, rec.TimeNS, rec.Attrs)
}

// close marks the feed terminal with the job's final status and wakes
// every subscriber; late subscribers receive the done event immediately.
func (f *feed) close(final JobStatus) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	f.done = true
	f.final = &final
	for sub := range f.subs {
		sub.finish(f.final)
	}
}

func (f *feed) subscribe() *feedSub {
	sub := &feedSub{f: f, notify: make(chan struct{}, 1)}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		sub.finish(f.final)
		return sub
	}
	f.subs[sub] = struct{}{}
	return sub
}

func (f *feed) subscriberCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// feedSub is one subscriber's bounded, drop-oldest event queue.
type feedSub struct {
	f      *feed
	notify chan struct{}

	mu      sync.Mutex
	queue   []JobEvent
	dropped uint64
	done    bool
	final   *JobStatus
	sentFin bool
}

func (s *feedSub) push(ev JobEvent) {
	s.mu.Lock()
	if len(s.queue) >= subQueueDepth {
		n := len(s.queue) - subQueueDepth + 1
		s.queue = append(s.queue[:0], s.queue[n:]...)
		s.dropped += uint64(n)
	}
	s.queue = append(s.queue, ev)
	s.mu.Unlock()
	s.wake()
}

func (s *feedSub) finish(final *JobStatus) {
	s.mu.Lock()
	s.done = true
	s.final = final
	s.mu.Unlock()
	s.wake()
}

func (s *feedSub) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// next blocks until an event is available or ctx ends. The second result
// is false when the stream is over: after the terminal done event has
// been returned, or on ctx cancellation.
func (s *feedSub) next(done <-chan struct{}) (JobEvent, bool) {
	for {
		s.mu.Lock()
		if len(s.queue) > 0 {
			ev := s.queue[0]
			s.queue = append(s.queue[:0], s.queue[1:]...)
			ev.Dropped = s.dropped
			s.dropped = 0
			s.mu.Unlock()
			return ev, true
		}
		if s.done {
			if s.sentFin {
				s.mu.Unlock()
				return JobEvent{}, false
			}
			s.sentFin = true
			ev := JobEvent{JobID: s.f.jobID, Type: "done", Status: s.final}
			s.mu.Unlock()
			return ev, true
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-done:
			return JobEvent{}, false
		}
	}
}

// close detaches the subscriber from its feed so publishes stop reaching
// it (client disconnects must not leak queues on a long-running daemon).
func (s *feedSub) close() {
	s.f.mu.Lock()
	delete(s.f.subs, s)
	s.f.mu.Unlock()
}

// handleJobEvents serves GET /jobs/{id}/events: a Server-Sent Events
// stream of the job's live progress. Subscribing to a queued job is
// valid (events begin when a worker picks the job up); subscribing to a
// finished job yields the terminal done event immediately.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sub := j.feed.subscribe()
	defer sub.close()
	for {
		ev, ok := sub.next(r.Context().Done())
		if !ok {
			return
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return
		}
		flusher.Flush()
		if ev.Type == "done" {
			return
		}
	}
}
