package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfhist"
	"repro/internal/pisa"
	"repro/internal/solcache"
)

const samplingSrc = `
int count = 0;
if (count == 10) {
  count = 0;
  pkt.sample = 1;
} else {
  count = count + 1;
  pkt.sample = 0;
}
`

func compileReq(wait bool) CompileRequest {
	return CompileRequest{
		Name:      "sampling",
		Source:    samplingSrc,
		Width:     2,
		MaxStages: 3,
		ALU:       "if_else_raw",
		Wait:      wait,
	}
}

func postCompile(t *testing.T, ts *httptest.Server, req CompileRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

// TestCompileEndToEnd exercises the real pipeline over HTTP: a compile
// succeeds, its configuration deserializes and simulates, and the second
// identical request is served from the solution cache.
func TestCompileEndToEnd(t *testing.T) {
	cache := solcache.New(8)
	s := New(Config{Workers: 2, QueueDepth: 4, JobTimeout: 2 * time.Minute, Cache: cache})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, st := postCompile(t, ts, compileReq(true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job state %q result=%v", st.State, st.Result)
	}
	if !st.Result.Feasible || st.Result.Cached {
		t.Fatalf("first compile: feasible=%v cached=%v", st.Result.Feasible, st.Result.Cached)
	}
	var cfg pisa.Config
	if err := json.Unmarshal(st.Result.Config, &cfg); err != nil {
		t.Fatalf("config does not deserialize: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("returned config invalid: %v", err)
	}

	resp2, st2 := postCompile(t, ts, compileReq(true))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status %d", resp2.StatusCode)
	}
	if !st2.Result.Cached || !st2.Result.Feasible {
		t.Fatalf("second compile: cached=%v feasible=%v, want a cache hit", st2.Result.Cached, st2.Result.Feasible)
	}

	// The job remains pollable.
	jresp, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Errorf("GET /jobs/%s = %d", st.ID, jresp.StatusCode)
	}
	if r, err := http.Get(ts.URL + "/jobs/nope"); err == nil {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job = %d, want 404", r.StatusCode)
		}
	}
}

// TestCompileBPFTarget exercises the target field end to end: a bpf
// compile over HTTP returns a register-machine artifact whose JSON
// deserializes as a bpf.Config, with Stages reporting the slot count.
func TestCompileBPFTarget(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, JobTimeout: 2 * time.Minute})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := CompileRequest{
		Name:   "new_flow",
		Source: "int seen = 0; if (seen == 0) { pkt.new_flow = 1; seen = 1; } else { pkt.new_flow = 0; }",
		Target: "bpf",
		// Iterative deepening stops at the first feasible slot count.
		MaxStages: 5,
		Seed:      1,
		Wait:      true,
	}
	resp, st := postCompile(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if st.State != StateDone || st.Result == nil || !st.Result.Feasible {
		t.Fatalf("job state %q result=%+v", st.State, st.Result)
	}
	if st.Result.Target != "bpf" {
		t.Fatalf("result target = %q, want bpf", st.Result.Target)
	}
	if st.Result.Stages < 1 || st.Result.Stages > 5 {
		t.Fatalf("slot count %d out of range", st.Result.Stages)
	}
	var cfg bpf.Config
	if err := json.Unmarshal(st.Result.Config, &cfg); err != nil {
		t.Fatalf("config does not deserialize as bpf.Config: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("returned bpf config invalid: %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, req := range map[string]CompileRequest{
		"empty source": {Name: "x"},
		"parse error":  {Name: "x", Source: "if (((("},
		"bad alu":      {Name: "x", Source: samplingSrc, ALU: "quantum"},
		"bad target":   {Name: "x", Source: samplingSrc, Target: "riscv"},
	} {
		resp, _ := postCompile(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestUnknownRequestFields: a field the request schema does not define is
// rejected with 400 rather than silently dropped — a retired option or a
// misspelled one would otherwise compile something other than what the
// client asked for. The same body without the stray field is accepted.
func TestUnknownRequestFields(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, JobTimeout: 2 * time.Minute})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	src, _ := json.Marshal(samplingSrc)
	post := func(extra string) *http.Response {
		t.Helper()
		body := `{"name":"sampling","width":2,"alu":"if_else_raw","wait":true,` + extra + `"source":` + string(src) + `}`
		resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for name, extra := range map[string]string{
		"retired option": `"cegis_mode":"holes",`,
		"misspelling":    `"max_stage":3,`,
	} {
		if resp := post(extra); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if resp := post(`"max_stages":3,`); resp.StatusCode != http.StatusOK {
		t.Fatalf("known fields: status %d, want 200", resp.StatusCode)
	}
}

// stubCompiles replaces the server's compile function with one that blocks
// until released, so tests control queue occupancy deterministically.
func stubCompiles(s *Server) (started chan string, release chan struct{}) {
	started = make(chan string, 16)
	release = make(chan struct{})
	s.compile = func(ctx context.Context, j *job) (*core.Report, error) {
		started <- j.prog.Name
		select {
		case <-release:
			return &core.Report{Program: j.prog.Name, Feasible: true}, nil
		case <-ctx.Done():
			return &core.Report{Program: j.prog.Name, TimedOut: true}, nil
		}
	}
	return started, release
}

// TestQueueFullBackpressure: one worker busy, a one-slot queue occupied —
// the next submission must be rejected with 429, and the metrics must
// record the throttle.
func TestQueueFullBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 1, Metrics: reg})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	started, release := stubCompiles(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r1 := compileReq(false)
	r1.Name = "inflight"
	resp, _ := postCompile(t, ts, r1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-started // the worker now holds job 1

	r2 := compileReq(false)
	r2.Name = "queued"
	if resp, _ := postCompile(t, ts, r2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}

	r3 := compileReq(false)
	r3.Name = "rejected"
	if resp, _ := postCompile(t, ts, r3); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp.StatusCode)
	}
	if got := reg.Counter("server.jobs.throttled").Value(); got != 1 {
		t.Errorf("server.jobs.throttled = %d, want 1", got)
	}
	close(release)
}

// TestFinishedJobEviction: the job table must stay bounded — beyond
// MaxFinishedJobs, the oldest finished jobs stop being pollable while the
// newest remain.
func TestFinishedJobEviction(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, MaxFinishedJobs: 2})
	defer s.Shutdown(context.Background())
	_, release := stubCompiles(s)
	close(release) // every compile returns immediately
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		resp, st := postCompile(t, ts, compileReq(true))
		if resp.StatusCode != http.StatusOK || st.State != StateDone {
			t.Fatalf("job %d: status %d state %q", i, resp.StatusCode, st.State)
		}
		ids = append(ids, st.ID)
	}

	// Retirement runs just after the waiter is released; poll briefly for
	// the oldest job to fall out of the table.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		_, resident := s.jobs[ids[0]]
		s.mu.Unlock()
		if !resident {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	if resp, err := http.Get(ts.URL + "/jobs/" + ids[0]); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("oldest finished job still pollable: %d, want 404", resp.StatusCode)
		}
	}
	for _, id := range ids[1:] {
		if st := getJob(t, ts, id); st.State != StateDone {
			t.Errorf("recent job %s state %q, want done", id, st.State)
		}
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 2 {
		t.Errorf("job table holds %d entries, want 2", n)
	}
}

// TestGracefulShutdown is the acceptance-criteria test: on drain,
// in-flight jobs complete, queued jobs are rejected, new submissions are
// refused, and the worker pool exits cleanly.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	started, release := stubCompiles(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflightReq := compileReq(false)
	inflightReq.Name = "inflight"
	_, inflightSt := postCompile(t, ts, inflightReq)
	<-started // worker holds it

	queuedReq := compileReq(false)
	queuedReq.Name = "queued"
	_, queuedSt := postCompile(t, ts, queuedReq)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// The drain must reject the queued job promptly, while the in-flight
	// job is still running.
	waitForState(t, ts, queuedSt.ID, StateRejected)
	if st := getJob(t, ts, inflightSt.ID); st.State != StateRunning {
		t.Fatalf("in-flight job state %q during drain, want running", st.State)
	}

	// New submissions and health checks are refused while draining.
	if resp, _ := postCompile(t, ts, compileReq(false)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d, want 503", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Errorf("healthz body during drain: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz during drain: %d, want 503", resp.StatusCode)
		}
		if h.Status != "draining" || !h.Draining {
			t.Errorf("healthz body during drain: %+v, want status=draining", h)
		}
	}

	// Let the in-flight job finish; Shutdown must then return cleanly.
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if st := getJob(t, ts, inflightSt.ID); st.State != StateDone || !st.Result.Feasible {
		t.Errorf("in-flight job after drain: state=%q, want done+feasible", st.State)
	}
}

// TestShutdownForceCancel: when the drain grace expires, in-flight job
// contexts are cancelled and the pool still exits.
func TestShutdownForceCancel(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	started, _ := stubCompiles(s) // never released: only ctx can end it
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := compileReq(false)
	_, st := postCompile(t, ts, req)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced shutdown returned %v, want deadline exceeded", err)
	}
	if got := getJob(t, ts, st.ID); got.State != StateDone || !got.Result.TimedOut {
		t.Errorf("force-cancelled job: state=%q result=%+v, want done+timed_out", got.State, got.Result)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	cache := solcache.New(8)
	s := New(Config{Workers: 1, Cache: cache})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postCompile(t, ts, compileReq(true))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"server.jobs.accepted", "server.jobs.completed", "solcache.misses", "solcache.size"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("metrics snapshot missing %q (have %v)", key, keys(snap))
		}
	}
}

// TestHealthzBody: a healthy daemon reports its operational state as
// JSON, not just a status code.
func TestHealthzBody(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postCompile(t, ts, compileReq(true))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining {
		t.Errorf("healthz body: %+v, want status=ok", h)
	}
	if h.JobsAccepted != 1 || h.JobsCompleted != 1 {
		t.Errorf("healthz counters: accepted=%d completed=%d, want 1/1", h.JobsAccepted, h.JobsCompleted)
	}
	if h.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", h.UptimeSeconds)
	}
	if h.Inflight != 0 || h.QueueDepth != 0 {
		t.Errorf("idle daemon reports inflight=%d queue_depth=%d", h.Inflight, h.QueueDepth)
	}
	// One completed job: the latency digests must each hold one sample
	// with ordered percentiles.
	for name, ls := range map[string]LatencySummary{"queue_wait": h.QueueWait, "job_runtime": h.JobRuntime} {
		if ls.Count != 1 {
			t.Errorf("%s count = %d, want 1", name, ls.Count)
		}
		if ls.P50MS > ls.P95MS || ls.P95MS > ls.P99MS || ls.P99MS > float64(ls.MaxMS) {
			t.Errorf("%s percentiles out of order: %+v", name, ls)
		}
	}
}

// TestMetricsPrometheus: /metrics/prom and content-negotiated /metrics
// serve the Prometheus text format; plain GET /metrics stays JSON.
func TestMetricsPrometheus(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postCompile(t, ts, compileReq(true))
	fetch := func(path, accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return sb.String(), resp.Header.Get("Content-Type")
	}

	prom, ct := fetch("/metrics/prom", "")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics/prom Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE server_jobs_completed counter",
		"server_jobs_completed 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics/prom missing %q:\n%s", want, prom)
		}
	}

	negotiated, ct2 := fetch("/metrics", "text/plain")
	if !strings.HasPrefix(ct2, "text/plain") {
		t.Errorf("negotiated /metrics Content-Type = %q", ct2)
	}
	if !strings.Contains(negotiated, "server_jobs_completed 1") {
		t.Errorf("negotiated /metrics is not Prometheus text:\n%s", negotiated)
	}

	jsonOut, ct3 := fetch("/metrics", "")
	if !strings.HasPrefix(ct3, "application/json") {
		t.Errorf("default /metrics Content-Type = %q", ct3)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(jsonOut), &snap); err != nil {
		t.Errorf("default /metrics is not JSON: %v", err)
	}
}

// TestExplainInfeasibleJob submits a known-infeasible job (marple_reorder
// needs two stages; the request allows one) with the explain knob set and
// checks the full forensics surface: the result carries a structured
// Explanation naming the binding dimension with a minimal blame set, the
// flight-recorder tail is attached to the status even though the job
// neither failed nor timed out, and the explain counters reach the
// Prometheus endpoint.
func TestExplainInfeasibleJob(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: 2 * time.Minute})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := CompileRequest{
		Name:      "marple_reorder",
		Source:    "int max_seq = 0; if (pkt.seq < max_seq) { pkt.reordered = 1; } else { pkt.reordered = 0; max_seq = pkt.seq; }",
		Width:     2,
		MaxStages: 1,
		ALU:       "pred_raw",
		Explain:   true,
		Wait:      true,
	}
	resp, st := postCompile(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job state %q result=%v error=%q", st.State, st.Result, st.Error)
	}
	if st.Result.Feasible || st.Result.TimedOut {
		t.Fatalf("marple_reorder at 1 stage should be infeasible, got %+v", st.Result)
	}
	exp := st.Result.Explanation
	if exp == nil {
		t.Fatal("infeasible job with explain set must return an explanation")
	}
	if exp.Dimension != core.DimStageDepth {
		t.Fatalf("binding dimension = %q (core %v), want %q", exp.Dimension, exp.BlamedGroups, core.DimStageDepth)
	}
	if !exp.Minimal || len(exp.BlamedGroups) == 0 || len(exp.BlamedStatements) == 0 {
		t.Fatalf("expected a minimal blame set with statements, got %+v", exp)
	}
	if len(st.Flight) == 0 {
		t.Fatal("infeasible verdict should attach the flight-recorder tail")
	}

	mresp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"explain_runs 1", "explain_minimal_cores 1", "server_jobs_explained 1"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics/prom missing %q", want)
		}
	}

	// A feasible job with the knob set stays explanation-free.
	freq := compileReq(true)
	freq.Explain = true
	_, fst := postCompile(t, ts, freq)
	if fst.Result == nil || !fst.Result.Feasible {
		t.Fatalf("sampling should compile: %+v", fst.Result)
	}
	if fst.Result.Explanation != nil {
		t.Fatal("feasible job must not carry an explanation")
	}
	if len(fst.Flight) != 0 {
		t.Fatal("feasible job must not attach a flight tail")
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitForState(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := getJob(t, ts, id); st.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q (now %q)", id, want, getJob(t, ts, id).State)
}

// TestClientRoundTrip drives the thin client against a live server.
func TestClientRoundTrip(t *testing.T) {
	cache := solcache.New(8)
	s := New(Config{Workers: 2, Cache: cache})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := NewClient(ts.URL)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Compile(ctx, compileReq(false)) // Wait is forced on
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Result.Feasible {
		t.Fatalf("client compile: %+v", st)
	}
	st2, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID || st2.State != StateDone {
		t.Errorf("job poll mismatch: %+v", st2)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["server.jobs.completed"]; !ok {
		t.Errorf("client metrics missing completion counter: %v", keys(snap))
	}
	if _, err := c.Compile(ctx, CompileRequest{}); err == nil {
		t.Error("client accepted an empty request")
	} else if !strings.Contains(err.Error(), "source") {
		t.Errorf("error should surface the server message, got: %v", err)
	}
}

// TestJobParallelismClamp: the server caps a request's seed fanout at
// Config.JobParallelism, so Validate's workers x job-parallelism guard
// bounds the attempts a daemon runs at once.
func TestJobParallelismClamp(t *testing.T) {
	cases := []struct {
		name       string
		cfgCap     int
		reqFanout  int
		wantFanout int
	}{
		{"default cap is sequential", 0, 2, 1},
		{"within cap", 4, 2, 2},
		{"above cap clamped", 2, 16, 2},
		{"sequential request unchanged", 4, 0, 0},
		{"fanout clamped", 4, 99, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{Workers: 1, JobParallelism: c.cfgCap})
			defer s.Shutdown(context.Background())
			j, err := s.newJob(CompileRequest{Name: "x", Source: samplingSrc, SeedFanout: c.reqFanout})
			if err != nil {
				t.Fatal(err)
			}
			if j.opts.SeedFanout != c.wantFanout {
				t.Errorf("SeedFanout = %d, want %d", j.opts.SeedFanout, c.wantFanout)
			}
		})
	}
}

// TestConfigValidateOversubscription: workers x job-parallelism beyond
// 2x GOMAXPROCS is a configuration error; anything at or below passes.
func TestConfigValidateOversubscription(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	ok := Config{Workers: 2, JobParallelism: cores}
	if err := ok.Validate(); err != nil {
		t.Fatalf("2 workers x %d parallelism should validate: %v", cores, err)
	}
	seq := Config{Workers: 1}
	if err := seq.Validate(); err != nil {
		t.Fatalf("sequential default should validate: %v", err)
	}
	bad := Config{Workers: 2*cores + 1, JobParallelism: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("oversubscribed config validated")
	}
}

// TestHedgedJobReportsWinner: a job with a seed fanout carries the
// winning slot's label to its result, so clients can see which depth and
// seed produced the solution. The job compiles inside the hedge stagger,
// so slot 0 wins and slot 1 never starts; the core tests cover slots that
// race.
func TestHedgedJobReportsWinner(t *testing.T) {
	s := New(Config{Workers: 1, JobParallelism: 2, JobTimeout: 2 * time.Minute})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := compileReq(true)
	req.SeedFanout = 2
	resp, st := postCompile(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if st.State != StateDone || st.Result == nil || !st.Result.Feasible {
		t.Fatalf("job state %q result=%+v", st.State, st.Result)
	}
	if st.Result.Winner == "" {
		t.Fatalf("hedged job result has no winner attribution: %+v", st.Result)
	}
}

// TestPrometheusMatchesPerfhist pins the invariant that the daemon's
// Prometheus counters and its perfhist records describe the same solver
// work: over a cold feasible job, its cache hit and an infeasible job,
// sat_conflicts equals the sum of the records' conflicts samples and
// core_attempts the sum of their attempts samples.
func TestPrometheusMatchesPerfhist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	hist, err := perfhist.Open(path, "server-test")
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	s := New(Config{Workers: 1, JobTimeout: 2 * time.Minute, Cache: solcache.New(8),
		Metrics: obs.NewRegistry(), History: hist})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	infeasible := CompileRequest{Name: "mul", Source: "pkt.a = pkt.a * pkt.b;", Width: 2,
		MaxStages: 2, ALU: "counter", Wait: true}
	for i, req := range []CompileRequest{compileReq(true), compileReq(true), infeasible} {
		_, st := postCompile(t, ts, req)
		if st.Result == nil {
			t.Fatalf("job %d: state %q: %s", i, st.State, st.Error)
		}
		if feasible, cached := st.Result.Feasible, st.Result.Cached; feasible != (i < 2) || cached != (i == 1) {
			t.Fatalf("job %d: feasible=%v cached=%v", i, feasible, cached)
		}
	}

	recs, err := perfhist.ReadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d perfhist records, want 3 (one per job)", len(recs))
	}
	var conflicts, attempts float64
	for _, r := range recs {
		conflicts += r.Samples["conflicts"]
		attempts += r.Samples["attempts"]
	}
	if conflicts == 0 || attempts == 0 {
		t.Fatalf("records carry no work: conflicts=%v attempts=%v", conflicts, attempts)
	}

	resp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prom := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("bad sample line %q: %v", line, err)
			}
			prom[f[0]] = v
		}
	}
	if prom["sat_conflicts"] != conflicts {
		t.Errorf("sat_conflicts = %v, perfhist conflicts sum to %v", prom["sat_conflicts"], conflicts)
	}
	if prom["core_attempts"] != attempts {
		t.Errorf("core_attempts = %v, perfhist attempts sum to %v", prom["core_attempts"], attempts)
	}
}
