package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/linerate"
	"repro/internal/obs"
	"repro/internal/pisa"
)

// Replay is the data-plane workload: the 8 corpus configurations,
// compiled during set-up, replay a seeded trace of 64 flows (Zipf s=1.0)
// through the compiled line-rate engine on one worker. No synthesis runs
// while it measures.
type Replay struct {
	// Packets is each program's trace length.
	Packets int
	// InterpPackets is how many leading packets the ExecInto interpreter
	// replays in the cross-check against the compiled engine.
	InterpPackets int
}

// replayRoundCost is one round's expected cost at 500k packets per
// program (8 programs at 7-24 Mpps).
const replayRoundCost = 350 * time.Millisecond

// replayProg is one program's configuration, engine and flattened trace.
type replayProg struct {
	name  string
	cfg   *pisa.Config
	eng   *linerate.Engine
	trace flatTrace
	want  *linerate.ReplayResult // the first round's result
}

// Run executes the workload.
func (w Replay) Run(ctx context.Context, p Plan) (*Result, error) {
	res := &Result{Workload: "replay", Seed: p.Seed, Traced: p.Trace, Metrics: map[string]float64{}}
	tl := &tally{}
	pr := newProber(p.Seed)
	var et engineTimes
	// A traced run traces the set-up's compiles too: they are the
	// workload's only ones.
	var tr *tracing
	if p.Trace {
		tr = &tracing{}
	}

	// Set-up: compile the corpus (checked), build each configuration's
	// engine, and flatten the seeded trace onto its fields.
	var progs []*replayProg
	setups, err := timeSetups(p.Setups, func() error {
		progs = nil
		trace := genTrace(w.Packets, p.Seed)
		for _, cp := range loadCorpus(ctx, pr, tr, tl, 0, p.Seed) {
			if cp.original == nil || cp.original.Config == nil {
				continue
			}
			rp := &replayProg{name: cp.bench.Name, cfg: cp.original.Config}
			var err error
			if rp.trace, err = flatten(trace, rp.cfg); err == nil {
				rp.eng, err = buildEngine(rp.cfg, &et)
			}
			tl.check(err)
			if err == nil {
				progs = append(progs, rp)
			}
		}
		if len(progs) == 0 {
			return fmt.Errorf("replay: no corpus program compiled")
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	// round replays every program's trace once, recording each replay's
	// latency; each result must match the program's first.
	round := func(_ int, tr *tracing, m *measurement) time.Duration {
		var busy time.Duration
		for _, rp := range progs {
			octx, done := tr.op(ctx, rp.name)
			_, span := obs.StartSpan(octx, "bench.replay")
			a0 := heapAllocated()
			t0 := time.Now()
			r := replay(rp.eng, rp.trace, &et)
			d := time.Since(t0)
			m.op(rp.name, d, heapAllocated()-a0)
			span.End()
			done()
			busy += d
			if rp.want == nil {
				rp.want = &r
				continue
			}
			var err error
			if r.Checksum != rp.want.Checksum || !equalStates(r.FlowStates, rp.want.FlowStates) {
				err = fmt.Errorf("%s: replay is not deterministic (checksum %#x vs %#x)", rp.name, r.Checksum, rp.want.Checksum)
			}
			tl.check(err)
		}
		return busy
	}
	crossCheck := func() {
		for _, rp := range progs {
			err := crossCheckEngines(rp.cfg, rp.eng, rp.trace, *rp.want, w.InterpPackets, &et)
			if err != nil {
				err = fmt.Errorf("%s: %w", rp.name, err)
			}
			tl.check(err)
		}
	}

	if p.Trace {
		untraced, traced := tracedPass(rounds(p.Measure, replayRoundCost), tr, round)
		crossCheck()
		compileLayers(res, tr, pr, &et, traced, untraced)
		return finish(res, tl), writeTrace(p, res.Workload, &tr.sink)
	}

	packets := 0
	for _, rp := range progs {
		packets += rp.trace.packets()
	}
	m := newMeasurement()
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < p.Measure; r++ {
		m.round(float64(packets), round(r, nil, m))
	}
	crossCheck()
	res.Samples = m.lat.count()
	res.Metrics, res.Info = m.metrics(setups)
	return finish(res, tl), nil
}
