package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// waitForSubscribers polls a job's feed until it has n subscribers, so
// tests can order "watcher attached" before "job released".
func waitForSubscribers(t *testing.T, s *Server, id string, n int) {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("no such job %s", id)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.feed.subscriberCount() == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %d subscribers (now %d)", id, n, j.feed.subscriberCount())
}

// TestWatchLiveCompile is the SSE acceptance test: a client watching a
// job observes at least one in-flight progress event (span or note,
// delivered while the compile is running) before the terminal done
// event arrives. A blocker job pins the single worker so the watcher is
// attached before the real compile starts.
func TestWatchLiveCompile(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute})
	defer s.Shutdown(context.Background())
	blockerStarted := make(chan struct{}, 1)
	release := make(chan struct{})
	s.compile = func(ctx context.Context, j *job) (*core.Report, error) {
		if j.prog.Name == "blocker" {
			blockerStarted <- struct{}{}
			<-release
			return &core.Report{Program: j.prog.Name, Feasible: true}, nil
		}
		return core.Compile(ctx, j.prog, j.opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blocker := compileReq(false)
	blocker.Name = "blocker"
	if resp, _ := postCompile(t, ts, blocker); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit: %d", resp.StatusCode)
	}
	<-blockerStarted

	resp, st := postCompile(t, ts, compileReq(false))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if st.State != StateQueued {
		t.Fatalf("job state %q, want queued (blocker should hold the worker)", st.State)
	}

	c := NewClient(ts.URL)
	var progress, doneEvents atomic.Int64
	watchErr := make(chan error, 1)
	final := make(chan *JobStatus, 1)
	go func() {
		fin, err := c.Watch(context.Background(), st.ID, func(ev JobEvent) {
			switch ev.Type {
			case "span_start", "span_end", "note":
				progress.Add(1)
			case "done":
				doneEvents.Add(1)
			}
		})
		watchErr <- err
		final <- fin
	}()

	// Only release the worker once the watcher is attached, so observed
	// events are genuinely in-flight.
	waitForSubscribers(t, s, st.ID, 1)
	close(release)

	if err := <-watchErr; err != nil {
		t.Fatal(err)
	}
	fin := <-final
	if fin.State != StateDone || fin.Result == nil || !fin.Result.Feasible {
		t.Fatalf("final status: %+v", fin)
	}
	if progress.Load() < 1 {
		t.Errorf("watched 0 in-flight progress events, want >= 1")
	}
	if doneEvents.Load() != 1 {
		t.Errorf("saw %d done events, want 1", doneEvents.Load())
	}
}

// TestNoteReachesEveryConsumer: one sat.progress note emitted under a
// span on a job's tracer arrives in the flight recorder as a "note"
// entry and on the SSE feed as a "note" event carrying the progress
// keys -watch and SSE clients read.
func TestNoteReachesEveryConsumer(t *testing.T) {
	tr := obs.NewTracer()
	rec := flight.New(0)
	rec.Attach(tr)
	defer rec.Close()
	f := newFeed("j1")
	sub := f.subscribe()
	defer sub.close()
	defer tr.Subscribe(f.publishRecord, false).Close()

	ctx, span := obs.StartSpan(obs.ContextWithTracer(context.Background(), tr), "sat.solve")
	obs.Note(ctx, "sat.progress", obs.String("phase", "verify"), obs.Int64("conflicts", 5000),
		obs.Int64("decisions", 9000), obs.Int64("restarts", 12))
	span.End()

	tail := rec.Tail()
	if len(tail) != 3 || tail[1].Kind != "note" || tail[1].Name != "sat.progress" {
		t.Fatalf("flight tail = %+v, want start, note, end", tail)
	}
	if _, ok := sub.next(nil); !ok {
		t.Fatal("no span_start event")
	}
	ev, ok := sub.next(nil)
	if !ok || ev.Type != "note" || ev.Name != "sat.progress" {
		t.Fatalf("second event = %+v, want note sat.progress", ev)
	}
	var keys []string
	for k := range ev.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "conflicts,decisions,phase,restarts" {
		t.Fatalf("note attrs keys = %s", got)
	}
	if ev.Attrs["phase"] != "verify" || ev.Attrs["conflicts"] != int64(5000) {
		t.Fatalf("note attrs = %v", ev.Attrs)
	}
}

// TestSlowConsumerDropOldest: a subscriber that never drains its queue
// loses the oldest events, keeps the newest, and learns how many were
// shed from the next delivered event's Dropped field.
func TestSlowConsumerDropOldest(t *testing.T) {
	f := newFeed("j1")
	sub := f.subscribe()
	defer sub.close()

	const extra = 50
	for i := 0; i < subQueueDepth+extra; i++ {
		f.publish("note", "tick", 0, int64(i), nil)
	}

	ev, ok := sub.next(nil)
	if !ok {
		t.Fatal("no event available")
	}
	if ev.Dropped != extra {
		t.Errorf("first event Dropped = %d, want %d", ev.Dropped, extra)
	}
	if ev.Seq != extra {
		t.Errorf("first event Seq = %d, want %d (oldest shed)", ev.Seq, extra)
	}
	// Drain the rest: exactly subQueueDepth events survive, ending with
	// the newest, then the closed feed yields the terminal event.
	n := 1
	for {
		ev2, ok := sub.next(nil)
		if !ok {
			t.Fatal("queue drained early")
		}
		if ev2.Type == "done" {
			t.Fatal("done before close")
		}
		n++
		if ev2.Seq == subQueueDepth+extra-1 {
			break
		}
	}
	if n != subQueueDepth {
		t.Errorf("drained %d events, want %d", n, subQueueDepth)
	}

	f.close(JobStatus{ID: "j1", State: StateDone})
	if ev, ok := sub.next(nil); !ok || ev.Type != "done" || ev.Status == nil {
		t.Fatalf("terminal event = %+v ok=%v, want done with status", ev, ok)
	}
	if _, ok := sub.next(nil); ok {
		t.Error("stream yielded events past done")
	}
}

// TestDisconnectFreesSubscriber: an SSE client that goes away mid-stream
// must be detached from the feed — a long-running daemon cannot leak a
// queue per dropped connection.
func TestDisconnectFreesSubscriber(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	started, release := stubCompiles(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st := postCompile(t, ts, compileReq(false))
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		NewClient(ts.URL).Watch(ctx, st.ID, nil)
	}()
	waitForSubscribers(t, s, st.ID, 1)

	cancel()
	<-watchDone
	// The handler unsubscribes on its way out; poll for it.
	waitForSubscribers(t, s, st.ID, 0)
	close(release)
}

// TestWatchFinishedJob: subscribing to an already-finished job delivers
// the terminal done event immediately.
func TestWatchFinishedJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	_, release := stubCompiles(s)
	close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st := postCompile(t, ts, compileReq(true))
	var events atomic.Int64
	fin, err := NewClient(ts.URL).Watch(context.Background(), st.ID, func(JobEvent) { events.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("final state %q", fin.State)
	}
	if events.Load() != 1 {
		t.Errorf("finished job delivered %d events, want exactly the done event", events.Load())
	}
}

// TestWatchUnknownJob: the events endpoint 404s like the status endpoint.
func TestWatchUnknownJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := NewClient(ts.URL).Watch(context.Background(), "nope", nil); err == nil {
		t.Fatal("watch of unknown job succeeded")
	}
}

// TestSSEWireFormat: the raw stream is well-formed SSE — event/data
// field pairs separated by blank lines, ending with a done event.
func TestSSEWireFormat(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	_, release := stubCompiles(s)
	close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st := postCompile(t, ts, compileReq(true))
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var sawDone bool
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "", strings.HasPrefix(line, "event: "):
		case strings.HasPrefix(line, "data: "):
			var ev JobEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
			if ev.Type == "done" {
				sawDone = true
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if !sawDone {
		t.Error("stream ended without a done event")
	}
}

// TestFlightDumpOnTimeout is the flight-recorder acceptance test: a
// compile driven to timeout leaves a bounded JSONL dump whose tail holds
// the last CEGIS iteration events, and the job status carries the
// truncated summary; a fast successful job leaves neither.
func TestFlightDumpOnTimeout(t *testing.T) {
	traceDir := t.TempDir()
	s := New(Config{Workers: 1, JobTimeout: 60 * time.Millisecond,
		TraceDir: traceDir, FlightCapacity: 64})
	defer s.Shutdown(context.Background())
	const iters = 100
	s.compile = func(ctx context.Context, j *job) (*core.Report, error) {
		if j.prog.Name == "fast" {
			_, sp := obs.StartSpan(ctx, "compile")
			sp.End()
			return &core.Report{Program: j.prog.Name, Feasible: true}, nil
		}
		for i := 0; i < iters; i++ {
			_, sp := obs.StartSpan(ctx, "cegis.iter", obs.Int("iter", i))
			sp.End()
		}
		<-ctx.Done()
		return &core.Report{Program: j.prog.Name, TimedOut: true}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, st := postCompile(t, ts, compileReq(true))
	if resp.StatusCode != http.StatusOK || st.State != StateDone || !st.Result.TimedOut {
		t.Fatalf("timeout job: status %d state %q result %+v", resp.StatusCode, st.State, st.Result)
	}
	if len(st.Flight) == 0 || len(st.Flight) > 20 {
		t.Fatalf("status flight tail holds %d entries, want 1..20", len(st.Flight))
	}
	lastIter := false
	for _, e := range st.Flight {
		if e.Name == "cegis.iter" {
			if v, ok := e.Attrs["iter"].(float64); ok && int(v) == iters-1 {
				lastIter = true
			}
		}
	}
	if !lastIter {
		t.Errorf("flight tail misses the last CEGIS iteration: %+v", st.Flight)
	}

	if st.FlightDump == "" {
		t.Fatal("no flight dump path on the timed-out job")
	}
	if !strings.HasPrefix(st.FlightDump, traceDir) {
		t.Fatalf("dump %q escaped trace dir %q", st.FlightDump, traceDir)
	}
	data, err := os.ReadFile(st.FlightDump)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 64 {
		t.Errorf("dump holds %d lines, want 64 (= FlightCapacity; ring must bound it)", len(lines))
	}
	sawLast := false
	for _, line := range lines {
		var e struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("dump line not JSON: %q: %v", line, err)
		}
		if e.Name == "cegis.iter" {
			if v, ok := e.Attrs["iter"].(float64); ok && int(v) == iters-1 {
				sawLast = true
			}
		}
	}
	if !sawLast {
		t.Error("dump does not contain the last CEGIS iteration events")
	}

	// Happy path: no dump, no tail, no per-job trace dir.
	fast := compileReq(true)
	fast.Name = "fast"
	_, fastSt := postCompile(t, ts, fast)
	if fastSt.State != StateDone || fastSt.Result == nil || !fastSt.Result.Feasible {
		t.Fatalf("fast job: %+v", fastSt)
	}
	if len(fastSt.Flight) != 0 || fastSt.FlightDump != "" {
		t.Errorf("fast successful job carries flight data: %+v", fastSt)
	}
	if _, err := os.Stat(filepath.Join(traceDir, fastSt.ID)); !os.IsNotExist(err) {
		t.Errorf("fast job left a trace dir (err=%v)", err)
	}
}

// TestSlowJobCPUProfile: a job outlasting the slow threshold leaves a
// CPU profile in its trace dir; the profiler is released for later jobs.
func TestSlowJobCPUProfile(t *testing.T) {
	traceDir := t.TempDir()
	s := New(Config{Workers: 1, JobTimeout: 5 * time.Second,
		TraceDir: traceDir, SlowJobThreshold: 20 * time.Millisecond})
	defer s.Shutdown(context.Background())
	s.compile = func(ctx context.Context, j *job) (*core.Report, error) {
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
		}
		return &core.Report{Program: j.prog.Name, Feasible: true}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st := postCompile(t, ts, compileReq(true))
	if st.State != StateDone {
		t.Fatalf("job state %q", st.State)
	}
	prof := filepath.Join(traceDir, st.ID, "cpu.pprof")
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatalf("no CPU profile for the slow job: %v", err)
	}
	if fi.Size() == 0 {
		t.Error("CPU profile is empty")
	}
	if cpuProfileActive.Load() {
		t.Error("profiler still marked active after the job finished")
	}
}
