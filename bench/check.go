package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/programs"
)

// compileSeed is the CEGIS seed of every corpus compile, as in the root
// Table 2 benchmark: the workload seed picks inputs, never the search.
const compileSeed = 7

// compileTimeout bounds one compile or daemon job.
const compileTimeout = 2 * time.Minute

// pinnedStages is Figure 5's minimal pipeline depth per corpus program: 1
// everywhere except marple_reorder, whose reordered flag reads the
// pre-update maximum while max_seq advances. Mutants must match, per the
// figure's zero variance across mutations.
var pinnedStages = map[string]int{
	"rcp": 1, "stateful_fw": 1, "sampling": 1, "blue_increase": 1,
	"blue_decrease": 1, "flowlet": 1, "marple_new_flow": 1, "marple_reorder": 2,
}

// corpusOptions is a corpus program's Table 2 compile configuration.
func corpusOptions(b programs.Benchmark) core.Options {
	return core.Options{
		Width:        b.Width,
		MaxStages:    b.MaxStages,
		StatelessALU: alu.Stateless{ConstBits: b.ConstBits},
		StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
		Seed:         compileSeed,
	}
}

// checkPinned checks a pisa compile of corpus program name (or one of its
// mutants) against the pinned verdict: feasible at the pinned depth.
func checkPinned(name string, rep *core.Report) error {
	switch {
	case rep.TimedOut:
		return fmt.Errorf("%s: timed out", rep.Program)
	case !rep.Feasible:
		return fmt.Errorf("%s: infeasible, want %d stages", rep.Program, pinnedStages[name])
	case rep.Usage.Stages != pinnedStages[name]:
		return fmt.Errorf("%s: %d stages, want %d", rep.Program, rep.Usage.Stages, pinnedStages[name])
	}
	return nil
}

// probeCount is how many random inputs each feasible configuration is
// probed with.
const probeCount = 64

// prober checks configurations against the reference interpreter on
// random inputs at the configuration's own width, and times the
// interpreter calls (interp.run_ns).
type prober struct {
	rng    *rand.Rand
	runs   int64
	runNS  int64
	parses []float64 // parser.Parse durations, µs
}

func newProber(seed int64) *prober { return &prober{rng: rand.New(rand.NewSource(seed))} }

// parse runs parser.Parse and records its duration.
func (p *prober) parse(name, src string) (*ast.Program, error) {
	t0 := time.Now()
	prog, err := parser.Parse(name, src)
	p.parses = append(p.parses, float64(time.Since(t0).Nanoseconds())/1e3)
	return prog, err
}

// check compares cfg.Exec with interp.Run on probeCount random inputs.
func (p *prober) check(prog *ast.Program, cfg backend.Config) error {
	w := cfg.RunWidth()
	in, err := interp.New(w)
	if err != nil {
		return err
	}
	fields, states := cfg.Vars()
	for trial := 0; trial < probeCount; trial++ {
		snap := interp.NewSnapshot()
		for _, f := range fields {
			snap.Pkt[f] = w.Trunc(p.rng.Uint64())
		}
		for _, s := range states {
			snap.State[s] = w.Trunc(p.rng.Uint64())
		}
		t0 := time.Now()
		want, err := in.Run(prog, snap)
		p.runNS += time.Since(t0).Nanoseconds()
		p.runs++
		if err != nil {
			return fmt.Errorf("%s: interpreter: %w", prog.Name, err)
		}
		gotPkt, gotState := cfg.Exec(snap.Pkt, snap.State)
		for _, f := range fields {
			if gotPkt[f] != want.Pkt[f] {
				return fmt.Errorf("%s: probe %s: pkt.%s = %d, interpreter says %d", prog.Name, snap, f, gotPkt[f], want.Pkt[f])
			}
		}
		for _, s := range states {
			if gotState[s] != want.State[s] {
				return fmt.Errorf("%s: probe %s: state %s = %d, interpreter says %d", prog.Name, snap, s, gotState[s], want.State[s])
			}
		}
	}
	return nil
}

// layerMetrics reports the parser and interpreter timings.
func (p *prober) layerMetrics(m map[string]float64) {
	m["parser.parse_us_p50"] = median(p.parses)
	m["interp.run_ns"] = ratio(float64(p.runNS), float64(p.runs))
}
