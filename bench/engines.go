package bench

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/linerate"
	"repro/internal/pisa"
	"repro/internal/workload"
)

// traceFields maps a generated trace onto a configuration's packet fields
// the way the root BenchmarkPPS does: the config's i-th field carries the
// generator's i-th field, so packets carry real variety.
var traceFields = []string{"now", "size", "seq", "rtt"}

// traceFlows is the number of flows in every generated trace.
const traceFlows = 64

// genTrace generates the seeded Zipf(1.0) trace every replay uses.
func genTrace(packets int, seed int64) []workload.Packet {
	return workload.Generate(workload.Spec{Flows: traceFlows, Packets: packets, ZipfS: 1.0, Seed: seed})
}

// flatTrace is a trace flattened onto one configuration's fields.
type flatTrace struct {
	flows  []int
	vals   []uint64
	nFlows int
}

func flatten(trace []workload.Packet, cfg *pisa.Config) (flatTrace, error) {
	if len(cfg.Fields) > len(traceFields) {
		return flatTrace{}, fmt.Errorf("%d packet fields, the trace generator has %d", len(cfg.Fields), len(traceFields))
	}
	flows, vals, n := workload.Flatten(trace, traceFields[:len(cfg.Fields)])
	return flatTrace{flows: flows, vals: vals, nFlows: n}, nil
}

// packets is the trace length.
func (t flatTrace) packets() int { return len(t.flows) }

// prefix is the trace's first n packets.
func (t flatTrace) prefix(n int) flatTrace {
	if n > len(t.flows) {
		n = len(t.flows)
	}
	nf := 0
	if len(t.flows) > 0 {
		nf = len(t.vals) / len(t.flows)
	}
	return flatTrace{flows: t.flows[:n], vals: t.vals[:n*nf], nFlows: t.nFlows}
}

// engineTimes accumulates data-plane timings across replays.
type engineTimes struct {
	builds               []float64 // linerate.Compile, µs
	packets, replayNS    int64     // compiled engine, one worker
	shardPkts, shardNS   int64     // compiled engine, two shards
	interpPkts, interpNS int64     // pisa.Config.ExecInto
}

// layerMetrics reports the linerate and pisa timings.
func (e *engineTimes) layerMetrics(m map[string]float64) {
	m["linerate.build_us"] = median(e.builds)
	m["linerate.ns_per_pkt"] = perPkt(e.replayNS, e.packets)
	m["linerate.sharded_mpps"] = 0
	if e.shardNS > 0 {
		m["linerate.sharded_mpps"] = float64(e.shardPkts) / float64(e.shardNS) * 1e3
	}
	m["pisa.exec_ns_per_pkt"] = perPkt(e.interpNS, e.interpPkts)
}

func perPkt(ns, pkts int64) float64 {
	if pkts == 0 {
		return 0
	}
	return float64(ns) / float64(pkts)
}

// replayShards is the sharded replay's worker count: the load never uses
// more than two goroutines.
const replayShards = 2

// buildEngine compiles cfg into a line-rate engine, timing the build.
func buildEngine(cfg *pisa.Config, et *engineTimes) (*linerate.Engine, error) {
	t0 := time.Now()
	eng, err := linerate.Compile(cfg)
	et.builds = append(et.builds, float64(time.Since(t0).Nanoseconds())/1e3)
	return eng, err
}

// replay runs the whole trace through the compiled engine on one worker.
func replay(eng *linerate.Engine, t flatTrace, et *engineTimes) linerate.ReplayResult {
	t0 := time.Now()
	r := linerate.Replay(eng, t.flows, t.vals, t.nFlows)
	et.replayNS += time.Since(t0).Nanoseconds()
	et.packets += int64(r.Packets)
	return r
}

// crossCheckEngines checks that the three execution paths agree on the
// trace: the sharded replay must reproduce the single-worker replay
// want (checksum and per-flow state), and over the first interpPackets
// packets the ExecInto interpreter must produce the compiled engine's
// per-flow output and state checksums.
func crossCheckEngines(cfg *pisa.Config, eng *linerate.Engine, t flatTrace, want linerate.ReplayResult, interpPackets int, et *engineTimes) error {
	t0 := time.Now()
	sh := linerate.ReplaySharded(eng, t.flows, t.vals, t.nFlows, replayShards)
	et.shardNS += time.Since(t0).Nanoseconds()
	et.shardPkts += int64(sh.Packets)
	if sh.Checksum != want.Checksum || !equalStates(sh.FlowStates, want.FlowStates) {
		return fmt.Errorf("sharded replay disagrees with the single-worker replay (checksum %#x vs %#x)", sh.Checksum, want.Checksum)
	}

	pre := t.prefix(interpPackets)
	nf, ns := len(cfg.Fields), len(cfg.States)
	scratch := cfg.NewScratch()
	interp := newFlowFold(pre.nFlows, ns)
	pkt := make([]uint64, nf)
	t0 = time.Now()
	for i, flow := range pre.flows {
		copy(pkt, pre.vals[i*nf:(i+1)*nf])
		cfg.ExecInto(scratch, pkt, interp.state(flow))
		interp.fold(flow, pkt)
	}
	et.interpNS += time.Since(t0).Nanoseconds()
	et.interpPkts += int64(pre.packets())

	buf := eng.NewBuf()
	compiled := newFlowFold(pre.nFlows, ns)
	for i, flow := range pre.flows {
		copy(pkt, pre.vals[i*nf:(i+1)*nf])
		eng.ExecInto(buf, pkt, compiled.state(flow))
		compiled.fold(flow, pkt)
	}
	if !slices.Equal(interp.sums, compiled.sums) || !equalStates(interp.states, compiled.states) {
		return fmt.Errorf("ExecInto interpreter and compiled engine disagree on the first %d packets", pre.packets())
	}
	if r := linerate.Replay(eng, pre.flows, pre.vals, pre.nFlows); !equalStates(r.FlowStates, interp.states) {
		return fmt.Errorf("replay of the first %d packets leaves other flow states than the ExecInto interpreter", pre.packets())
	}
	return nil
}

// flowFold keeps per-flow state vectors and an order-sensitive checksum of
// each flow's outputs.
type flowFold struct {
	nStates int
	states  [][]uint64
	sums    []uint64
}

func newFlowFold(nFlows, nStates int) *flowFold {
	return &flowFold{nStates: nStates, states: make([][]uint64, nFlows), sums: make([]uint64, nFlows)}
}

func (f *flowFold) state(flow int) []uint64 {
	if f.states[flow] == nil {
		f.states[flow] = make([]uint64, f.nStates)
	}
	return f.states[flow]
}

func (f *flowFold) fold(flow int, out []uint64) {
	c := f.sums[flow]
	for _, v := range out {
		c = c*0x9E3779B97F4A7C15 + v + 1
	}
	f.sums[flow] = c
}

// equalStates compares per-flow state tables; a flow that never saw a
// packet may be nil on one side.
func equalStates(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == nil || b[i] == nil {
			if (a[i] == nil) != (b[i] == nil) {
				return false
			}
			continue
		}
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// replayConfigs runs a small trace through each configuration on every
// execution path (the traced runs' data-plane layer probe) and checks they
// agree.
func replayConfigs(cfgs []*pisa.Config, trace []workload.Packet, et *engineTimes, tl *tally) {
	for _, cfg := range cfgs {
		tl.check(replayOne(cfg, trace, et))
	}
}

func replayOne(cfg *pisa.Config, trace []workload.Packet, et *engineTimes) error {
	t, err := flatten(trace, cfg)
	if err != nil {
		return err
	}
	eng, err := buildEngine(cfg, et)
	if err != nil {
		return err
	}
	r := replay(eng, t, et)
	return crossCheckEngines(cfg, eng, t, r, t.packets(), et)
}
