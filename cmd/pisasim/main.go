// Command pisasim executes a synthesized PISA configuration over a packet
// trace, optionally differential-testing it against the source program's
// transactional semantics.
//
// Usage:
//
//	pisasim -config cfg.json [-packets N] [-program prog.domino]
//	        [-flows N] [-shards N] [-trace]
//
// The configuration comes from `chipmunk -json`. pisasim compiles it to
// the line-rate engine (internal/linerate: one straight-line register
// program, zero allocation per packet) and runs every packet through
// that. Packets are generated with uniformly random field values
// (deterministic under -seed), or as a bursty multi-flow workload with
// -flows. A -flows run without -program or -trace is a batch replay,
// sharded across -shards workers by flow; the others run packet by
// packet. Every run ends with a throughput summary. With -program, every
// packet's pipeline output and state are additionally compared against
// the reference interpreter, and any divergence exits 4.
//
// The engine's agreement with package pisa's grid simulator, the
// reference every compiled form is checked against, is tested by the
// linerate tests, the FuzzCompiledExec target and the chipfuzz campaign,
// not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/linerate"
	"repro/internal/parser"
	"repro/internal/pisa"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pisasim:", err)
		os.Exit(1)
	}
}

// sim bundles everything one simulation run needs.
type sim struct {
	cfg   *pisa.Config
	eng   *linerate.Engine
	buf   *linerate.Buf
	trace bool
	ref   *interp.Interp // spec oracle, nil without -program
	prog  *ast.Program
	// divergences counts the outputs that differed from the spec.
	divergences int
}

func run() error {
	var (
		cfgPath  = flag.String("config", "", "configuration JSON from `chipmunk -json` (required)")
		progPath = flag.String("program", "", "Domino source to differential-test against")
		packets  = flag.Int("packets", 100, "number of packets to simulate")
		seed     = flag.Int64("seed", 1, "random packet generator seed")
		traceOut = flag.Bool("trace", false, "print every packet's output")
		flows    = flag.Int("flows", 0, "simulate a multi-flow workload with per-flow state (0 = single flow, uniform random fields)")
		zipf     = flag.Float64("zipf", 1.0, "flow-popularity skew for -flows")
		shards   = flag.Int("shards", 1, "parallel replay workers for -flows without -program or -trace (flows are partitioned across workers)")
	)
	flag.Parse()
	if *cfgPath == "" {
		return fmt.Errorf("-config is required")
	}
	data, err := os.ReadFile(*cfgPath)
	if err != nil {
		return err
	}
	var cfg pisa.Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", *cfgPath, err)
	}
	eng, err := linerate.Compile(&cfg)
	if err != nil {
		return err
	}
	s := &sim{cfg: &cfg, eng: eng, buf: eng.NewBuf(), trace: *traceOut}
	if *progPath != "" {
		src, err := os.ReadFile(*progPath)
		if err != nil {
			return err
		}
		s.prog, err = parser.Parse(*progPath, string(src))
		if err != nil {
			return err
		}
		s.ref, err = interp.New(cfg.Grid.WordWidth)
		if err != nil {
			return err
		}
	}

	if *flows > 0 {
		return s.runWorkload(*flows, *zipf, *packets, *seed, *shards)
	}
	return s.runSingleFlow(*packets, *seed)
}

// runSingleFlow drives uniformly random packets through one flow's state.
func (s *sim) runSingleFlow(packets int, seed int64) error {
	cfg := s.cfg
	rng := rand.New(rand.NewSource(seed))
	w := cfg.Grid.WordWidth
	in := make([]uint64, len(cfg.Fields))
	pkt := make([]uint64, len(cfg.Fields))
	st := make([]uint64, len(cfg.States))
	var refState map[string]uint64
	start := time.Now()
	for i := 0; i < packets; i++ {
		for k := range in {
			in[k] = w.Trunc(rng.Uint64())
		}
		copy(pkt, in)
		s.eng.ExecInto(s.buf, pkt, st)
		if s.trace {
			fmt.Printf("pkt %3d: in=%s out=%s state=%s\n", i,
				renderVec(cfg.Fields, in), renderVec(cfg.Fields, pkt), renderVec(cfg.States, st))
		}
		if s.ref != nil {
			var err error
			if refState, err = s.checkSpec(fmt.Sprintf("pkt %d", i), in, pkt, st, refState); err != nil {
				return err
			}
		}
	}
	return s.finish(fmt.Sprintf("simulated %d packets through %d-stage pipeline", packets, cfg.Grid.Stages),
		packets, time.Since(start))
}

// runWorkload replays a generated multi-flow trace with per-flow state:
// as one sharded batch when no packet needs looking at, else packet by
// packet.
func (s *sim) runWorkload(flows int, zipf float64, packets int, seed int64, shards int) error {
	cfg := s.cfg
	trace := workload.Generate(workload.Spec{
		Flows:   flows,
		Packets: packets,
		ZipfS:   zipf,
		Seed:    seed,
	})
	fmt.Printf("workload: %s\n", workload.Summarize(trace))
	flowIDs, vals, nFlows := workload.Flatten(trace, cfg.Fields)

	if s.ref == nil && !s.trace {
		start := time.Now()
		res := linerate.ReplaySharded(s.eng, flowIDs, vals, nFlows, shards)
		elapsed := time.Since(start)
		fmt.Printf("simulated %d packets across %d flows (checksum %#016x, %d shards)\n",
			res.Packets, flows, res.Checksum, shards)
		throughput(res.Packets, elapsed)
		return nil
	}

	nf, ns := len(cfg.Fields), len(cfg.States)
	w := cfg.Grid.WordWidth
	states := make([][]uint64, nFlows)
	refStates := make([]map[string]uint64, nFlows)
	in := make([]uint64, nf)
	pkt := make([]uint64, nf)
	start := time.Now()
	for i, flow := range flowIDs {
		for k, v := range vals[i*nf : (i+1)*nf] {
			in[k] = w.Trunc(v)
		}
		if states[flow] == nil {
			states[flow] = make([]uint64, ns)
		}
		copy(pkt, in)
		s.eng.ExecInto(s.buf, pkt, states[flow])
		if s.trace {
			fmt.Printf("pkt %4d flow %2d out=%s\n", i, flow, renderVec(cfg.Fields, pkt))
		}
		if s.ref != nil {
			var err error
			label := fmt.Sprintf("pkt %d flow %d", i, flow)
			if refStates[flow], err = s.checkSpec(label, in, pkt, states[flow], refStates[flow]); err != nil {
				return err
			}
		}
	}
	return s.finish(fmt.Sprintf("simulated %d packets across %d flows", len(flowIDs), flows),
		len(flowIDs), time.Since(start))
}

// checkSpec runs one packet through the spec interpreter from refState,
// the spec's state for the packet's flow, and prints every field and
// state where the pipeline's outputs differ. It returns the spec's new
// state.
func (s *sim) checkSpec(label string, in, outPkt, outSt []uint64, refState map[string]uint64) (map[string]uint64, error) {
	cfg := s.cfg
	snap := interp.NewSnapshot()
	for k, f := range cfg.Fields {
		snap.Pkt[f] = in[k]
	}
	for name, v := range refState {
		snap.State[name] = v
	}
	want, err := s.ref.Run(s.prog, snap)
	if err != nil {
		return nil, err
	}
	for k, f := range cfg.Fields {
		if outPkt[k] != want.Pkt[f] {
			s.divergences++
			fmt.Printf("DIVERGENCE %s field %s: pipeline=%d spec=%d\n", label, f, outPkt[k], want.Pkt[f])
		}
	}
	for k, st := range cfg.States {
		if outSt[k] != want.State[st] {
			s.divergences++
			fmt.Printf("DIVERGENCE %s state %s: pipeline=%d spec=%d\n", label, st, outSt[k], want.State[st])
		}
	}
	return want.State, nil
}

// finish prints a per-packet run's summary and throughput, and exits 4
// if the spec check found divergences.
func (s *sim) finish(summary string, packets int, elapsed time.Duration) error {
	fmt.Print(summary)
	if s.ref != nil {
		fmt.Printf("; %d divergences from specification", s.divergences)
	}
	fmt.Println()
	throughput(packets, elapsed)
	if s.divergences > 0 {
		os.Exit(4)
	}
	return nil
}

// throughput prints the uniform summary line every run ends with.
func throughput(packets int, elapsed time.Duration) {
	pps := float64(packets) / elapsed.Seconds()
	fmt.Printf("throughput: %d packets in %s (%.4g pps)\n", packets, elapsed, pps)
}

func renderVec(names []string, vals []uint64) string {
	keys := append([]string{}, names...)
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	sort.Strings(keys)
	out := "{"
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, vals[idx[k]])
	}
	return out + "}"
}
