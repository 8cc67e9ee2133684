package linerate_test

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/alu"
	"repro/internal/core"
	"repro/internal/linerate"
	"repro/internal/parser"
	"repro/internal/pisa"
	"repro/internal/programs"
	"repro/internal/word"
	"repro/internal/workload"
)

// The corpus fixture: every benchmark program synthesized once (seed 7,
// the same settings the benchmarks use) and shared across tests. Compiling
// live keeps the fixture honest — the engine is tested against exactly
// what the synthesizer emits today, not a checked-in snapshot.
var (
	corpusOnce sync.Once
	corpusCfgs map[string]*pisa.Config
)

func corpusConfigs(t testing.TB) map[string]*pisa.Config {
	t.Helper()
	corpusOnce.Do(func() {
		corpusCfgs = map[string]*pisa.Config{}
		for _, b := range programs.Corpus() {
			prog, err := parser.Parse(b.Name, b.Source)
			if err != nil {
				t.Errorf("parse %s: %v", b.Name, err)
				continue
			}
			rep, err := core.Compile(context.Background(), prog, core.Options{
				Width:        b.Width,
				MaxStages:    b.MaxStages,
				StatelessALU: alu.Stateless{ConstBits: b.ConstBits},
				StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
				Seed:         7,
			})
			if err != nil {
				t.Errorf("compile %s: %v", b.Name, err)
				continue
			}
			if !rep.Feasible {
				t.Errorf("compile %s: infeasible", b.Name)
				continue
			}
			corpusCfgs[b.Name] = rep.Config
		}
	})
	if len(corpusCfgs) == 0 {
		t.Fatal("corpus fixture failed to build")
	}
	return corpusCfgs
}

// diffAt reports the first slot where engine and interpreter disagree on
// one input, or -1.
func diffAt(cfg *pisa.Config, eng *linerate.Engine, scratch *pisa.ExecScratch, buf *linerate.Buf, in, ref, got []uint64) int {
	nf := len(cfg.Fields)
	copy(ref, in)
	copy(got, in)
	cfg.ExecInto(scratch, ref[:nf], ref[nf:])
	eng.ExecInto(buf, got[:nf], got[nf:])
	for i := range ref {
		if ref[i] != got[i] {
			return i
		}
	}
	return -1
}

// TestCompiledMatchesInterpExhaustive sweeps the complete input space of
// every corpus config at small width (the difftest bit-budget rule: the
// largest width w <= 5 with w*(fields+states) within budget), proving the
// compiled engine bit-identical to Config.Exec everywhere — including the
// narrow-width selector-aliasing corners.
func TestCompiledMatchesInterpExhaustive(t *testing.T) {
	budget := 20
	if testing.Short() {
		budget = 16
	}
	for name, cfg := range corpusConfigs(t) {
		t.Run(name, func(t *testing.T) {
			nVars := len(cfg.Fields) + len(cfg.States)
			w := word.Width(5)
			for w > 1 && int(w)*nVars > budget {
				w--
			}
			if int(w)*nVars > budget {
				t.Skipf("%d variables exceed the exhaustive bit budget even at width 1", nVars)
			}
			small := *cfg
			small.Grid.WordWidth = w
			eng, err := linerate.Compile(&small)
			if err != nil {
				t.Fatal(err)
			}
			scratch, buf := small.NewScratch(), eng.NewBuf()
			in := make([]uint64, nVars)
			ref := make([]uint64, nVars)
			got := make([]uint64, nVars)
			size := w.Size()
			for {
				if i := diffAt(&small, eng, scratch, buf, in, ref, got); i >= 0 {
					t.Fatalf("width %d input %v: slot %d engine=%d interp=%d", w, in, i, got[i], ref[i])
				}
				i := 0
				for ; i < len(in); i++ {
					in[i]++
					if in[i] < size {
						break
					}
					in[i] = 0
				}
				if i == len(in) {
					return
				}
			}
		})
	}
}

// TestCompiledMatchesInterpRandom fires randomized probes at each config's
// full verification width. The default count is the acceptance bar; -short
// (CI's race run) trims it but keeps the race coverage of the shared
// immutable Engine.
func TestCompiledMatchesInterpRandom(t *testing.T) {
	probes := 100_000
	if testing.Short() {
		probes = 20_000
	}
	for name, cfg := range corpusConfigs(t) {
		t.Run(name, func(t *testing.T) {
			eng, err := linerate.Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			scratch, buf := cfg.NewScratch(), eng.NewBuf()
			nVars := len(cfg.Fields) + len(cfg.States)
			in := make([]uint64, nVars)
			ref := make([]uint64, nVars)
			got := make([]uint64, nVars)
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < probes; trial++ {
				for i := range in {
					// Full 64-bit values: input truncation is part of the
					// contract under test.
					in[i] = rng.Uint64()
				}
				if i := diffAt(cfg, eng, scratch, buf, in, ref, got); i >= 0 {
					t.Fatalf("trial %d input %v: slot %d engine=%d interp=%d", trial, in, i, got[i], ref[i])
				}
			}
		})
	}
}

// remapTraceFields copies the generator's field values onto the config's
// field names positionally, so replays exercise real per-packet variety
// even when the synthesized program names its fields differently.
func remapTraceFields(trace []workload.Packet, names []string) {
	src := []string{"now", "size", "seq", "rtt"}
	for _, p := range trace {
		for i, name := range names {
			if i < len(src) {
				p.Fields[name] = p.Fields[src[i]]
			}
		}
	}
}

// TestReplayMatchesPerFlow pins the flattened replay path to the map-based
// reference wrapper: same trace, same per-flow outputs and final states.
func TestReplayMatchesPerFlow(t *testing.T) {
	cfg, ok := corpusConfigs(t)["flowlet"]
	if !ok {
		t.Fatal("corpus missing flowlet")
	}
	eng, err := linerate.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Generate(workload.Spec{
		Flows: 13, Packets: 4000, ZipfS: 1.1, MeanGap: 3, BurstLen: 4, Seed: 21,
	})
	remapTraceFields(trace, cfg.Fields)
	flows, vals, nFlows := workload.Flatten(trace, cfg.Fields)

	// Reference: map-based per-flow wrapper over Config.Exec.
	pf := workload.NewPerFlow(cfg)
	var refSums []uint64
	refSums = make([]uint64, nFlows)
	for _, p := range trace {
		out := pf.Process(p)
		c := refSums[p.Flow]
		for _, f := range cfg.Fields {
			c = c*0x9E3779B97F4A7C15 + (out[f] + 1)
		}
		refSums[p.Flow] = c
	}

	res := linerate.Replay(eng, flows, vals, nFlows)
	if res.Packets != len(trace) {
		t.Fatalf("replayed %d packets, want %d", res.Packets, len(trace))
	}
	// The replay checksum folds final states after the packet stream; fold
	// the reference the same way and compare.
	var want uint64
	for flow := 0; flow < nFlows; flow++ {
		c := refSums[flow]
		if res.FlowStates[flow] != nil {
			st := pf.StateOf(flow)
			for _, sname := range cfg.States {
				c = c*0x9E3779B97F4A7C15 + (st[sname] + 1)
			}
			for i, sname := range cfg.States {
				if res.FlowStates[flow][i] != st[sname] {
					t.Fatalf("flow %d state %s: engine=%d interp=%d", flow, sname, res.FlowStates[flow][i], st[sname])
				}
			}
		}
		want ^= c
	}
	if res.Checksum != want {
		t.Fatalf("replay checksum %#x, want %#x", res.Checksum, want)
	}
}

// TestShardedReplayMatchesSingle is the sharding invariant: partitioning
// flows across workers must not change any flow's final state or the
// order-sensitive per-flow checksums. Run under -race in CI, it also
// checks the workers share the engine and trace safely.
func TestShardedReplayMatchesSingle(t *testing.T) {
	cfgs := corpusConfigs(t)
	for _, name := range []string{"flowlet", "sampling", "marple_new_flow"} {
		cfg, ok := cfgs[name]
		if !ok {
			t.Fatalf("corpus missing %s", name)
		}
		eng, err := linerate.Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace := workload.Generate(workload.Spec{
			Flows: 17, Packets: 6000, ZipfS: 0.9, MeanGap: 2, BurstLen: 3, Seed: 5,
		})
		remapTraceFields(trace, cfg.Fields)
		flows, vals, nFlows := workload.Flatten(trace, cfg.Fields)
		single := linerate.Replay(eng, flows, vals, nFlows)
		for _, workers := range []int{2, 3, 4, 7, 32} {
			sharded := linerate.ReplaySharded(eng, flows, vals, nFlows, workers)
			if sharded.Packets != single.Packets {
				t.Fatalf("%s/%d workers: %d packets, want %d", name, workers, sharded.Packets, single.Packets)
			}
			if sharded.Checksum != single.Checksum {
				t.Fatalf("%s/%d workers: checksum %#x, want %#x", name, workers, sharded.Checksum, single.Checksum)
			}
			for flow := range single.FlowStates {
				a, b := single.FlowStates[flow], sharded.FlowStates[flow]
				if (a == nil) != (b == nil) || len(a) != len(b) {
					t.Fatalf("%s/%d workers: flow %d state shape mismatch", name, workers, flow)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s/%d workers: flow %d state %d: %d vs %d", name, workers, flow, i, b[i], a[i])
					}
				}
			}
		}
	}
}

// TestExecIntoDoesNotAllocate is the engine-side zero-allocation contract.
func TestExecIntoDoesNotAllocate(t *testing.T) {
	cfg, ok := corpusConfigs(t)["sampling"]
	if !ok {
		t.Fatal("corpus missing sampling")
	}
	eng, err := linerate.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := eng.NewBuf()
	fields := make([]uint64, len(cfg.Fields))
	states := make([]uint64, len(cfg.States))
	allocs := testing.AllocsPerRun(500, func() { eng.ExecInto(buf, fields, states) })
	if allocs != 0 {
		t.Fatalf("ExecInto allocates %.1f objects per packet, want 0", allocs)
	}
}

// TestCompileRejectsInvalid: an unvalidatable config must not compile.
func TestCompileRejectsInvalid(t *testing.T) {
	cfg, ok := corpusConfigs(t)["sampling"]
	if !ok {
		t.Fatal("corpus missing sampling")
	}
	bad := *cfg
	bad.Grid.WordWidth = 0
	if _, err := linerate.Compile(&bad); err == nil {
		t.Fatal("Compile accepted an invalid config")
	}
}

// TestReplayAllocationsFlat: a replay's allocations depend on the flow
// count, not the trace length — per-flow states share one backing array.
func TestReplayAllocationsFlat(t *testing.T) {
	cfg, ok := corpusConfigs(t)["flowlet"]
	if !ok {
		t.Fatal("corpus missing flowlet")
	}
	eng, err := linerate.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(packets int) float64 {
		trace := workload.Generate(workload.Spec{Flows: 64, Packets: packets, ZipfS: 1.0, Seed: 3})
		remapTraceFields(trace, cfg.Fields)
		flows, vals, nFlows := workload.Flatten(trace, cfg.Fields)
		return testing.AllocsPerRun(3, func() { linerate.Replay(eng, flows, vals, nFlows) })
	}
	if short, long := allocs(1_000), allocs(100_000); short != long {
		t.Fatalf("Replay allocates %.0f objects for 1k packets but %.0f for 100k", short, long)
	}
}

// TestCorpusInstructionCounts pins each corpus configuration's register
// program length, so a lost fold, shared subexpression or dead-code
// elimination fails here rather than only in a benchmark number.
func TestCorpusInstructionCounts(t *testing.T) {
	want := map[string]int{
		"rcp":             11,
		"flowlet":         5,
		"blue_increase":   5,
		"blue_decrease":   5,
		"marple_reorder":  5,
		"sampling":        3,
		"stateful_fw":     3,
		"marple_new_flow": 2,
	}
	cfgs := corpusConfigs(t)
	for name, n := range want {
		cfg, ok := cfgs[name]
		if !ok {
			t.Errorf("corpus missing %s", name)
			continue
		}
		eng, err := linerate.Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := linerate.NumInstrs(eng); got != n {
			t.Errorf("%s compiles to %d instructions, want %d:\n%s", name, got, n, strings.Join(linerate.Listing(eng), "\n"))
		}
	}
	if len(cfgs) != len(want) {
		t.Errorf("corpus has %d configurations, the table pins %d", len(cfgs), len(want))
	}
}

// cloneConfig deep-copies a configuration's hole values so a test can
// perturb them.
func cloneConfig(cfg *pisa.Config) *pisa.Config {
	cp := *cfg
	cp.Values = pisa.MapHoles(cfg.Values, func(v uint64) uint64 { return v })
	return &cp
}

// TestDeadALUsLeaveProgramUnchanged: an ALU no output reads contributes
// no instruction, so rewriting its holes must not change the program. The
// dead ALUs are a stateless ALU whose container's output mux selects a
// stateful output, a last-stage stateless ALU whose container no field
// unloads, and a stateful ALU that is inactive and that no output mux
// selects.
func TestDeadALUsLeaveProgramUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfgs := map[string]*pisa.Config{}
	for name, cfg := range corpusConfigs(t) {
		cfgs[name] = cfg
	}
	// No corpus configuration leaves a container unread, so one more: a
	// width-2 grid carrying one field, whose second container is dead.
	{
		g := pisa.GridSpec{Stages: 1, Width: 2, WordWidth: 10, StatefulALU: alu.Stateful{Kind: alu.PredRaw}}
		h := pisa.NewHoles[uint64](g, false, 1, func(string, int, bool) uint64 { return 0 })
		for j := 0; j < 2; j++ {
			h.Stateless[0][j]["opcode"] = alu.SlOpAddImm // pkt.x + 3
			h.Stateless[0][j]["imm"] = 3
			h.OMux[0][j] = 2
		}
		cfgs["one field, two containers"] = &pisa.Config{Grid: g, Fields: []string{"x"}, Values: h}
	}
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	slices.Sort(names)
	counts := map[string]int{}
	for _, name := range names {
		cfg := cfgs[name]
		eng, err := linerate.Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := linerate.Listing(eng)
		g, h := cfg.Grid, cfg.Values
		w := g.WordWidth
		unloaded := func(j int) bool {
			if h.FieldAlloc == nil {
				return j < len(cfg.Fields)
			}
			for f := range h.FieldAlloc {
				if h.FieldAlloc[f][j] != 0 {
					return true
				}
			}
			return false
		}
		for i := 0; i < g.Stages; i++ {
			selected := make([]bool, g.Width+1)
			for j := 0; j < g.Width; j++ {
				selected[w.SelIdx(h.OMux[i][j], g.Width+1)] = true
			}
			for j := 0; j < g.Width; j++ {
				routed := w.SelIdx(h.OMux[i][j], g.Width+1) < g.Width
				dead := map[string]func(*pisa.Config) map[string]uint64{}
				if routed {
					dead["routed-over stateless"] = func(c *pisa.Config) map[string]uint64 { return c.Values.Stateless[i][j] }
				}
				if !routed && i == g.Stages-1 && !unloaded(j) {
					dead["unread stateless"] = func(c *pisa.Config) map[string]uint64 { return c.Values.Stateless[i][j] }
				}
				if h.SaluActive[i][j] == 0 && !selected[j] {
					dead["idle stateful"] = func(c *pisa.Config) map[string]uint64 { return c.Values.Stateful[i][j] }
				}
				for kind, holes := range dead {
					counts[kind]++
					for trial := 0; trial < 20; trial++ {
						mut := cloneConfig(cfg)
						for k := range holes(mut) {
							holes(mut)[k] = rng.Uint64() & 0xf
						}
						got, err := linerate.Compile(mut)
						if err != nil {
							t.Fatal(err)
						}
						if l := linerate.Listing(got); !slices.Equal(l, want) {
							t.Fatalf("%s: perturbing the %s ALU at stage %d slot %d changed the program:\n%s\nwant:\n%s",
								name, kind, i, j, strings.Join(l, "\n"), strings.Join(want, "\n"))
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"routed-over stateless", "unread stateless", "idle stateful"} {
		if counts[kind] == 0 {
			t.Errorf("the corpus has no %s ALU; the test needs one", kind)
		}
	}
}

// TestCommonSubexpressionsComputedOnce: a value two outputs read is
// computed once — a pred_raw ALU's predicate, which its output mux reads
// and which guards its new state, and a sum two stateless ALUs compute
// from the same containers.
func TestCommonSubexpressionsComputedOnce(t *testing.T) {
	predicate := func() *pisa.Config {
		g := pisa.GridSpec{Stages: 1, Width: 1, WordWidth: 10, StatefulALU: alu.Stateful{Kind: alu.PredRaw}}
		h := pisa.NewHoles[uint64](g, false, 1, func(string, int, bool) uint64 { return 0 })
		sf := h.Stateful[0][0]
		sf["rel"] = alu.RelLt         // state < pkt.x
		sf["cmp_lmux"] = 0            // left: state
		sf["cmp_rmux"] = 1            // right: pkt.x
		sf["upd_mode"] = alu.UpdAddOp // state + pkt.x
		sf["upd_mux"] = 1
		sf["out_sel"] = alu.OutPred
		h.SaluActive[0][0] = 1
		h.OMux[0][0] = 0 // container 0 reads stateful slot 0's output
		return &pisa.Config{Grid: g, Fields: []string{"x"}, States: []string{"s"}, Values: h}
	}
	sum := func() *pisa.Config {
		g := pisa.GridSpec{Stages: 1, Width: 2, WordWidth: 10, StatefulALU: alu.Stateful{Kind: alu.PredRaw}}
		h := pisa.NewHoles[uint64](g, false, 2, func(string, int, bool) uint64 { return 0 })
		for j := 0; j < 2; j++ {
			sl := h.Stateless[0][j]
			sl["opcode"] = alu.SlOpAdd // pkt.x + pkt.y
			sl["imux1"], sl["imux2"] = 0, 1
			h.OMux[0][j] = 2 // container j keeps its stateless ALU's result
		}
		return &pisa.Config{Grid: g, Fields: []string{"x", "y"}, Values: h}
	}
	for _, tc := range []struct {
		name string
		cfg  *pisa.Config
		op   string
	}{
		{"pred_raw predicate", predicate(), "lt"},
		{"stateless sum", sum(), "add"},
	} {
		eng, err := linerate.Compile(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		listing := strings.Join(linerate.Listing(eng), "\n")
		if n := strings.Count(listing, " = "+tc.op+" "); n != 1 {
			t.Fatalf("%s: %s is computed %d times, want 1:\n%s", tc.name, tc.op, n, listing)
		}
		// The program must still be the configuration's meaning.
		nVars := len(tc.cfg.Fields) + len(tc.cfg.States)
		scratch, buf := tc.cfg.NewScratch(), eng.NewBuf()
		rng := rand.New(rand.NewSource(5))
		ref, got := make([]uint64, nVars), make([]uint64, nVars)
		for trial := 0; trial < 200; trial++ {
			for i := range ref {
				ref[i] = rng.Uint64() & 0x3ff
			}
			copy(got, ref)
			in := slices.Clone(ref)
			nf := len(tc.cfg.Fields)
			tc.cfg.ExecInto(scratch, ref[:nf], ref[nf:])
			eng.ExecInto(buf, got[:nf], got[nf:])
			if !slices.Equal(ref, got) {
				t.Fatalf("%s: input %v: engine %v, interpreter %v", tc.name, in, got, ref)
			}
		}
	}
}

// BenchmarkReplay replays a 64-flow Zipf trace through each corpus
// configuration on one worker and reports the cost per packet.
func BenchmarkReplay(b *testing.B) {
	cfgs := corpusConfigs(b)
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		cfg := cfgs[name]
		b.Run(name, func(b *testing.B) {
			eng, err := linerate.Compile(cfg)
			if err != nil {
				b.Fatal(err)
			}
			trace := workload.Generate(workload.Spec{Flows: 64, Packets: 50_000, ZipfS: 1.0, Seed: 7})
			remapTraceFields(trace, cfg.Fields)
			flows, vals, nFlows := workload.Flatten(trace, cfg.Fields)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linerate.Replay(eng, flows, vals, nFlows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(flows)), "ns/pkt")
		})
	}
}
