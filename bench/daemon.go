package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/perfhist"
	"repro/internal/pisa"
	"repro/internal/server"
	"repro/internal/solcache"
)

// Daemon is the compile-service workload: an in-process chipmunkd with 2
// workers and a shared solution cache, on the loopback interface, driven
// by one closed-loop client sending wait-mode requests. Every
// daemonMissEvery-th request carries a mutant no earlier request sent (a
// cache miss), of each corpus program in turn; every other request
// repeats, for a uniformly chosen program, its original (sent during
// set-up) or one of its mutants sent earlier, whose compile has finished
// since the client waits for every reply: a cache hit, so the stream is
// the same at the start of a run as at its end.
//
// One client: with two, a hit nearly always runs beside the other client's
// miss, and on a 2-vCPU host its latency follows the contention between
// them more than the service (README.md gives the measured spreads).
type Daemon struct {
	// Jobs, when positive, ends the run after this many jobs instead of
	// after Plan.Measure.
	Jobs int
	// Pool is how many distinct mutants of each program the stream can
	// draw.
	Pool int
}

const (
	daemonWorkers = 2
	cacheCapacity = 4096
	// daemonJobsPerS sizes the traced pass: about the measured rate.
	daemonJobsPerS = 65
	// daemonMissEvery spaces the misses. The mix is synthetic, not
	// observed traffic: one miss in six is the hit share (about 83%) of a
	// uniform draw over 32 mutants per program, but on a fixed schedule
	// instead of a draw, whose hit share climbs as the cache fills, so
	// every run of a given length sends the same number of misses.
	daemonMissEvery = 6
)

// original is the source index that stands for a corpus program's
// original text.
const original = -1

// source returns the name and text of source k of the program.
func (cp *corpusProg) source(k int) (name, src string) {
	if k == original {
		return cp.bench.Name, cp.bench.Source
	}
	return cp.names[k], cp.srcs[k]
}

// request is the wire form of compiling source k with the program's
// Table 2 options.
func (cp *corpusProg) request(k int) server.CompileRequest {
	b := cp.bench
	name, src := cp.source(k)
	return server.CompileRequest{
		Name: name, Source: src, Target: "pisa",
		Width: b.Width, MaxStages: b.MaxStages,
		ALU: b.StatefulALU.String(), ConstBits: b.ConstBits,
		Seed: compileSeed,
	}
}

// requestGen is the seeded request stream. Its sequence is a function of
// the seed alone.
type requestGen struct {
	rng        *rand.Rand
	progs      []*corpusProg
	order      []int   // the programs' turn order for fresh requests
	issued     int     // requests drawn so far
	unsent     []int   // per program: the next never-sent mutant
	repeatable [][]int // per program: sources a repeat may pick
}

func newRequestGen(progs []*corpusProg, seed int64) *requestGen {
	rng := newRand(seed, 3)
	g := &requestGen{rng: rng, progs: progs, order: rng.Perm(len(progs)),
		unsent: make([]int, len(progs)), repeatable: make([][]int, len(progs))}
	for i := range progs {
		g.repeatable[i] = []int{original}
	}
	return g
}

// cycle is one miss cycle: a fresh request for every program in turn.
func (g *requestGen) cycle() int { return len(g.progs) * daemonMissEvery }

// next returns the next request's program and source index. A fresh
// source becomes repeatable at once: the client waits for every reply, so
// its compile has finished before the next request is drawn.
func (g *requestGen) next() (prog, src int) {
	n := g.issued
	g.issued++
	if n%daemonMissEvery == 0 {
		i := g.order[n/daemonMissEvery%len(g.order)]
		if k := g.unsent[i]; k < len(g.progs[i].srcs) {
			g.unsent[i]++
			g.repeatable[i] = append(g.repeatable[i], k)
			return i, k
		}
	}
	i := g.rng.Intn(len(g.progs))
	return i, g.repeatable[i][g.rng.Intn(len(g.repeatable[i]))]
}

// daemonRig is a running in-process daemon and its client.
type daemonRig struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *server.Client
}

func startDaemon(cfg server.Config) (*daemonRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	d := &daemonRig{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		client: server.NewClient("http://" + ln.Addr().String())}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener and connections, drains the worker pool, and
// waits for the serve loop to return.
func (d *daemonRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	http.DefaultClient.CloseIdleConnections()
	return err
}

func daemonConfig() server.Config {
	return server.Config{Workers: daemonWorkers, Cache: solcache.New(cacheCapacity)}
}

// jobRecord is one request's outcome as the client saw it.
type jobRecord struct {
	prog, src int
	st        *server.JobStatus
	err       error
	rtt       time.Duration
}

// drive runs the closed loop: the client sends its next request as soon as
// the previous one returns, until limit jobs were sent (limit > 0) or until
// has passed. after, if set, runs after every reply with the number of
// replies so far and the time since the loop began. It returns the jobs,
// in order, and the loop's wall time.
func drive(ctx context.Context, rig *daemonRig, gen *requestGen, limit int, until time.Duration, tr *obs.Tracer, after func(n int, done time.Duration)) ([]jobRecord, time.Duration) {
	if tr != nil {
		ctx = obs.ContextWithTracer(ctx, tr)
	}
	var jobs []jobRecord
	start := time.Now()
	for ctx.Err() == nil {
		if limit > 0 && len(jobs) >= limit || limit <= 0 && len(jobs) > 0 && time.Since(start) >= until {
			break
		}
		i, k := gen.next()
		cp := gen.progs[i]
		jctx, span := obs.StartSpan(ctx, "bench.job", obs.String("program", cp.bench.Name))
		t0 := time.Now()
		st, err := rig.client.Compile(jctx, cp.request(k))
		rtt := time.Since(t0)
		span.End()
		jobs = append(jobs, jobRecord{prog: i, src: k, st: st, err: err, rtt: rtt})
		if after != nil {
			after(len(jobs), time.Since(start))
		}
	}
	return jobs, time.Since(start)
}

// jobChecker checks finished jobs: each must be done, feasible at the
// pinned depth, and its configuration must pass the random-probe check
// (once per distinct source and configuration).
type jobChecker struct {
	pr      *prober
	parsed  map[string]*ast.Program
	checked map[string]bool
	// configs keeps the first returned configuration of each program, for
	// the traced run's data-plane probe.
	configs map[string]*pisa.Config
}

func newJobChecker(pr *prober) *jobChecker {
	return &jobChecker{pr: pr, parsed: map[string]*ast.Program{}, checked: map[string]bool{}, configs: map[string]*pisa.Config{}}
}

func (c *jobChecker) check(cp *corpusProg, name, src string, st *server.JobStatus, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if st.State != server.StateDone {
		return fmt.Errorf("%s: job %s ended %s: %s", name, st.ID, st.State, st.Error)
	}
	r := st.Result
	switch {
	case r == nil || r.TimedOut || !r.Feasible:
		return fmt.Errorf("%s: job %s did not compile: %+v", name, st.ID, r)
	case r.Stages != pinnedStages[cp.bench.Name]:
		return fmt.Errorf("%s: job %s used %d stages, want %d", name, st.ID, r.Stages, pinnedStages[cp.bench.Name])
	}
	key := src + "\x00" + string(r.Config)
	if c.checked[key] {
		return nil
	}
	c.checked[key] = true
	prog := c.parsed[src]
	if prog == nil {
		if prog, err = c.pr.parse(name, src); err != nil {
			return err
		}
		c.parsed[src] = prog
	}
	cfg := &pisa.Config{}
	if err := json.Unmarshal(r.Config, cfg); err != nil {
		return fmt.Errorf("%s: job %s config: %w", name, st.ID, err)
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%s: job %s config: %w", name, st.ID, err)
	}
	if _, ok := c.configs[cp.bench.Name]; !ok {
		c.configs[cp.bench.Name] = cfg
	}
	return c.pr.check(prog, cfg)
}

func (c *jobChecker) checkAll(gen *requestGen, jobs []jobRecord, tl *tally) {
	for _, j := range jobs {
		cp := gen.progs[j.prog]
		name, src := cp.source(j.src)
		tl.check(c.check(cp, name, src, j.st, j.err))
	}
}

// startWarm starts a daemon and sends every corpus original through it,
// checked: the first sources repeats target, and a warm process and HTTP
// path before timing.
func startWarm(ctx context.Context, cfg server.Config, gen *requestGen, jc *jobChecker, tl *tally) (*daemonRig, error) {
	rig, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}
	for _, cp := range gen.progs {
		st, err := rig.client.Compile(ctx, cp.request(original))
		tl.check(jc.check(cp, cp.bench.Name, cp.bench.Source, st, err))
	}
	return rig, nil
}

// serverShares splits the jobs' client round trips into queueing, running
// and transport (round trip minus queued-to-finished), from the job
// timestamps.
func serverShares(m map[string]float64, jobs []jobRecord) {
	var queue, run, rtt float64
	for _, j := range jobs {
		st := j.st
		if j.err != nil || st == nil || st.Started == nil || st.Finished == nil {
			continue
		}
		queue += ms(st.Started.Sub(st.Queued))
		run += ms(st.Finished.Sub(*st.Started))
		rtt += ms(j.rtt)
	}
	m["server.queue_share"] = ratio(queue, rtt)
	m["server.run_share"] = ratio(run, rtt)
	m["server.transport_share"] = ratio(rtt-queue-run, rtt)
}

// Run executes the workload.
func (w Daemon) Run(ctx context.Context, p Plan) (*Result, error) {
	res := &Result{Workload: "daemon", Seed: p.Seed, Traced: p.Trace, Metrics: map[string]float64{}}
	tl := &tally{}
	pr := newProber(p.Seed)
	jc := newJobChecker(pr)
	if p.Trace {
		return w.traced(ctx, p, res, tl, pr, jc)
	}

	// Set-up: generate the request stream and start a warm daemon. Before
	// a repeated set-up, the daemon the previous one started is stopped,
	// untimed, so only the measured daemon runs during the loop.
	var rig *daemonRig
	var gen *requestGen
	setups, err := timeSetups(p.Setups, func() error {
		gen = newRequestGen(corpus(pr, tl, w.Pool, p.Seed), p.Seed)
		var err error
		rig, err = startWarm(ctx, daemonConfig(), gen, jc, tl)
		return err
	}, func() {
		tl.check(rig.stop())
		rig = nil
	})
	var jobs []jobRecord
	m := newMeasurement()
	if err == nil {
		// A round is one miss cycle of replies. Allocation is counted per
		// round: the heap allocated in it (client, server and HTTP alike)
		// per job, so a round's misses weigh by their share.
		window := gen.cycle()
		var lastDone time.Duration
		lastAlloc := heapAllocated()
		round := func(jobs int, done time.Duration) {
			allocated := heapAllocated()
			m.alloc.add("jobs", float64(allocated-lastAlloc)/mib/float64(jobs))
			m.round(float64(jobs), done-lastDone)
			lastDone, lastAlloc = done, allocated
		}
		var wall time.Duration
		jobs, wall = drive(ctx, rig, gen, w.Jobs, p.Measure, nil, func(n int, done time.Duration) {
			if n%window == 0 {
				round(window, done)
			}
		})
		if len(jobs) < window {
			round(len(jobs), wall)
		}
		for _, j := range jobs {
			m.lat.add(gen.progs[j.prog].bench.Name, ms(j.rtt))
		}
	}
	if rig != nil {
		tl.check(rig.stop())
	}
	if err != nil {
		return nil, err
	}
	jc.checkAll(gen, jobs, tl)
	res.Samples = len(jobs)
	res.Metrics, res.Info = m.metrics(setups)
	// The share of jobs the cache answered: mutants that canonicalize
	// alike hit even on a first send.
	hits := 0
	for _, j := range jobs {
		if j.st != nil && j.st.Result != nil && j.st.Result.Cached {
			hits++
		}
	}
	res.Info["cache_hit_ratio"] = ratio(float64(hits), float64(len(jobs)))
	return finish(res, tl), nil
}

// traced runs a fixed number of jobs against a plain daemon, then the
// same request stream against a daemon reporting into a metrics registry
// and a performance history, with a bench.job span around every request.
func (w Daemon) traced(ctx context.Context, p Plan, res *Result, tl *tally, pr *prober, jc *jobChecker) (*Result, error) {
	n := w.Jobs
	if n <= 0 {
		n = max(1, int(p.Measure.Seconds()*daemonJobsPerS/2))
	}
	pass := func(cfg server.Config, tr *obs.Tracer, after func(int, time.Duration)) ([]jobRecord, time.Duration, error) {
		gen := newRequestGen(corpus(pr, tl, w.Pool, p.Seed), p.Seed)
		rig, err := startWarm(ctx, cfg, gen, jc, tl)
		if err != nil {
			return nil, 0, err
		}
		jobs, wall := drive(ctx, rig, gen, n, 0, tr, after)
		tl.check(rig.stop())
		jc.checkAll(gen, jobs, tl)
		return jobs, wall, nil
	}
	_, untraced, err := pass(daemonConfig(), nil, nil)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(p.Out, 0o755); err != nil {
		return nil, err
	}
	histPath := filepath.Join(p.Out, res.Workload+".history.jsonl")
	if err := os.Remove(histPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	hist, err := perfhist.Open(histPath, EnvelopeBench+"."+res.Workload)
	if err != nil {
		return nil, err
	}
	cfg := daemonConfig()
	cfg.Metrics, cfg.History = obs.NewRegistry(), hist
	tr := obs.NewTracer()
	var eff effort
	jobs, traced, err := pass(cfg, tr, func(int, time.Duration) { eff.notePeaks(cfg.Metrics) })
	if cerr := hist.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	recs, err := perfhist.ReadFile(histPath)
	if err != nil {
		return nil, err
	}
	var lt layerTimes
	for _, r := range recs {
		if r.Profile != nil {
			lt.add(profileLayers(*r.Profile, 0)) // the daemon's jobs never explain
		}
	}
	eff.addRegistry(cfg.Metrics)

	var et engineTimes
	var cfgs []*pisa.Config
	for _, name := range sortedKeys(jc.configs) {
		cfgs = append(cfgs, jc.configs[name])
	}
	replayConfigs(cfgs, genTrace(probeTracePackets, p.Seed), &et, tl)

	lt.metrics(res.Metrics)
	eff.metrics(res.Metrics)
	pr.layerMetrics(res.Metrics)
	et.layerMetrics(res.Metrics)
	serverShares(res.Metrics, jobs)
	res.Metrics["bench.trace_overhead"] = ratio(traced.Seconds(), untraced.Seconds())
	var sink traceSink
	sink.add(tr.Records())
	return finish(res, tl), writeTrace(p, res.Workload, &sink)
}
