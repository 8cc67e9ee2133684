package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/cegis"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/solcache"
)

// dep2 needs two stages (s2 reads s1's old value). It is fast enough for
// race-enabled CI.
const dep2Src = "int s1 = 0; int s2 = 0; s2 = s1; s1 = s1 + pkt.x;"

func dep2Options() Options {
	return Options{
		Width:        2,
		MaxStages:    3,
		StatelessALU: alu.Stateless{ConstBits: 4},
		StatefulALU:  alu.Stateful{Kind: alu.PredRaw, ConstBits: 4},
		Seed:         7,
	}
}

// mulSrc on a 3-wide grid of pair ALUs is infeasible at one stage in
// milliseconds; its two-stage synthesis solve runs for tens of seconds.
const mulSrc = "pkt.a = pkt.a * pkt.b;"

func mulOptions() Options {
	return Options{
		Width:        3,
		MaxStages:    2,
		StatelessALU: alu.Stateless{ConstBits: alu.DefaultConstBits},
		StatefulALU:  alu.Stateful{Kind: alu.Pair, ConstBits: alu.DefaultConstBits},
		Seed:         1,
	}
}

func mustParse(t *testing.T, name, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// setStagger sets hedgeStagger for the rest of the test.
func setStagger(t *testing.T, d time.Duration) {
	t.Helper()
	old := hedgeStagger
	hedgeStagger = d
	t.Cleanup(func() { hedgeStagger = old })
}

// scrubTimes zeroes every wall-clock field so reports from separate runs
// can be compared structurally.
func scrubTimes(rep *Report) {
	rep.Elapsed = 0
	for i := range rep.Depths {
		rep.Depths[i].Elapsed = 0
	}
}

// slotFn scripts one fake hedge slot: it returns "feasible",
// "infeasible", "timeout" or "error" once it is done.
type slotFn func(ctx context.Context) string

var errBoom = errors.New("boom")

// blocked is a slot that never decides: it reports a timeout once its
// context ends, as a real attempt does.
func blocked(ctx context.Context) string {
	<-ctx.Done()
	return "timeout"
}

func returns(v string) slotFn { return func(context.Context) string { return v } }

// fakeRun adapts scripted slots to hedge's attempt callback.
func fakeRun(slots ...slotFn) func(context.Context, int) (DepthResult, *cegis.Result, error) {
	return func(ctx context.Context, k int) (DepthResult, *cegis.Result, error) {
		dr := DepthResult{Stages: 1, Member: fmt.Sprintf("d1.s%d", k)}
		res := &cegis.Result{}
		switch slots[k](ctx) {
		case "feasible":
			res.Feasible = true
		case "timeout":
			res.TimedOut = true
		case "error":
			return dr, nil, errBoom
		}
		dr.Feasible, dr.TimedOut = res.Feasible, res.TimedOut
		return dr, res, nil
	}
}

// A hedge that finds a configuration cancels slot 0 in the middle of a
// real synthesis solve: mul's two-stage solve runs for tens of seconds on
// its own, and must give up within seconds of the hedge's win.
func TestHedgeWinCancelsSlotZeroMidSolve(t *testing.T) {
	setStagger(t, 300*time.Millisecond)
	prog := mustParse(t, "mul", mulSrc)
	opts := mulOptions()
	start := time.Now()
	out, won, err := hedge(context.Background(), 2, func(ctx context.Context, k int) (DepthResult, *cegis.Result, error) {
		if k == 1 {
			return fakeRun(nil, returns("feasible"))(ctx, k)
		}
		return attempt(ctx, prog, opts, 2, cegis.Options{Seed: opts.Seed, Member: "d2.s0"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("hedge returned after %v; slot 0 was not stopped mid-solve", d)
	}
	if won != 1 || len(out) != 2 {
		t.Fatalf("won=%d with %d slots, want slot 1 of 2", won, len(out))
	}
	s0 := out[0].dr
	if !s0.Canceled || s0.TimedOut || s0.Feasible || s0.Iters == 0 {
		t.Errorf("slot 0 = %+v, want Canceled mid-solve (not TimedOut, at least one iteration)", s0)
	}
}

// Slot 0's UNSAT is a proof for its depth: it ends the depth without
// waiting for a running hedge, which comes back Canceled. A slot 0 that
// decides inside the stagger starts no hedge at all.
func TestHedgeSlotZeroUnsatEndsDepth(t *testing.T) {
	t.Run("hedge running", func(t *testing.T) {
		setStagger(t, 10*time.Millisecond)
		hedgeStarted := make(chan struct{})
		out, won, err := hedge(context.Background(), 2, fakeRun(
			func(context.Context) string { <-hedgeStarted; return "infeasible" },
			func(ctx context.Context) string { close(hedgeStarted); return blocked(ctx) },
		))
		if err != nil {
			t.Fatal(err)
		}
		if won != 0 || len(out) != 2 || out[0].res.Feasible {
			t.Fatalf("won=%d with %d slots, want slot 0's infeasible verdict of 2", won, len(out))
		}
		if s1 := out[1].dr; !s1.Canceled || s1.TimedOut {
			t.Errorf("hedge slot = %+v, want Canceled", s1)
		}
	})
	t.Run("inside the stagger", func(t *testing.T) {
		setStagger(t, time.Hour)
		ran := false
		out, won, err := hedge(context.Background(), 2, fakeRun(returns("infeasible"),
			func(context.Context) string { ran = true; return "feasible" }))
		if err != nil {
			t.Fatal(err)
		}
		if won != 0 || len(out) != 1 || ran {
			t.Fatalf("won=%d with %d slots (hedge ran: %v), want slot 0 alone", won, len(out), ran)
		}
	})
}

// Seed fanout 1 is the sequential path bit for bit, and a hedged compile
// that resolves every depth inside the stagger starts no hedge: its
// report equals the sequential one apart from slot 0's labels.
func TestHedgeInsideStaggerMatchesSequential(t *testing.T) {
	setStagger(t, time.Hour)
	b, err := programs.ByName("sampling")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Parse()
	base, err := Compile(context.Background(), prog, benchOptions(b))
	if err != nil {
		t.Fatal(err)
	}
	scrubTimes(base)
	for _, fanout := range []int{1, 2} {
		opts := benchOptions(b)
		opts.SeedFanout = fanout
		rep, err := Compile(context.Background(), prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		scrubTimes(rep)
		if fanout > 1 {
			last := rep.Depths[len(rep.Depths)-1]
			if rep.Winner != last.Member || rep.WastedConflicts != 0 {
				t.Errorf("winner %q (last attempt %q), wasted %d: want the last attempt, nothing wasted",
					rep.Winner, last.Member, rep.WastedConflicts)
			}
			for i := range rep.Depths {
				d := &rep.Depths[i]
				if want := fmt.Sprintf("d%d.s0", d.Stages); d.Member != want {
					t.Errorf("attempt %d labeled %q, want %q", i, d.Member, want)
				}
				d.Member = ""
			}
			rep.Winner = ""
		}
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("SeedFanout=%d report differs from sequential:\n%+v\nvs\n%+v", fanout, rep, base)
		}
	}
}

// The compile deadline ends a hedged depth as a timeout: every slot that
// ran timed out, none was canceled by a sibling, and nothing won.
func TestHedgeDeadlineTimesOut(t *testing.T) {
	t.Run("hedge", func(t *testing.T) {
		setStagger(t, 10*time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		out, won, err := hedge(ctx, 3, fakeRun(blocked, blocked, blocked))
		if err != nil {
			t.Fatal(err)
		}
		if won != -1 || len(out) != 3 {
			t.Fatalf("won=%d with %d slots, want no winner of 3", won, len(out))
		}
		for _, s := range out {
			if !s.dr.TimedOut || s.dr.Canceled {
				t.Errorf("slot %s = %+v, want TimedOut", s.dr.Member, s.dr)
			}
		}
	})
	t.Run("compile", func(t *testing.T) {
		setStagger(t, 20*time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		opts := mulOptions()
		opts.SeedFanout = 2
		rep, err := Compile(ctx, mustParse(t, "mul", mulSrc), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.TimedOut || rep.Feasible || rep.Winner != "" {
			t.Fatalf("timedout=%v feasible=%v winner=%q, want a timeout", rep.TimedOut, rep.Feasible, rep.Winner)
		}
		if last := rep.Depths[len(rep.Depths)-1]; !last.TimedOut || last.Stages != 2 {
			t.Errorf("last attempt %+v, want a timeout at 2 stages", last)
		}
	})
}

// Slot k joins k staggers after the depth's attempt began, not before.
func TestHedgeStagger(t *testing.T) {
	setStagger(t, 30*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var mu sync.Mutex
	started := map[int]time.Duration{}
	begin := time.Now()
	record := func(k int) slotFn {
		return func(ctx context.Context) string {
			mu.Lock()
			started[k] = time.Since(begin)
			mu.Unlock()
			return blocked(ctx)
		}
	}
	if _, _, err := hedge(ctx, 3, fakeRun(record(0), record(1), record(2))); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 3; k++ {
		at, ok := started[k]
		if !ok {
			t.Fatalf("slot %d never started", k)
		}
		if want := time.Duration(k) * hedgeStagger; at < want {
			t.Errorf("slot %d started after %v, want >= %v", k, at, want)
		}
	}
}

// An attempt error before the depth is decided stops the other slots and
// is returned. A slot that errors after a sibling decided the depth was
// canceled: it is dropped, and the depth keeps its verdict.
func TestHedgeAttemptError(t *testing.T) {
	setStagger(t, 10*time.Millisecond)
	t.Run("undecided", func(t *testing.T) {
		_, _, err := hedge(context.Background(), 2, fakeRun(blocked, returns("error")))
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v, want boom", err)
		}
	})
	t.Run("after a win", func(t *testing.T) {
		hedgeStarted := make(chan struct{})
		out, won, err := hedge(context.Background(), 2, fakeRun(
			func(context.Context) string { <-hedgeStarted; return "feasible" },
			func(ctx context.Context) string { close(hedgeStarted); <-ctx.Done(); return "error" },
		))
		if err != nil {
			t.Fatalf("err = %v, want slot 0's win", err)
		}
		if won != 0 || len(out) != 1 || !out[0].res.Feasible {
			t.Fatalf("won=%d with %d slots, want slot 0's feasible verdict alone", won, len(out))
		}
	})
}

// With fanout <= 1 only slot 0 runs, and its verdict decides the depth.
func TestHedgeFanoutOneIsPlainAttempt(t *testing.T) {
	for _, fanout := range []int{0, 1} {
		var calls []int
		out, won, err := hedge(context.Background(), fanout, func(_ context.Context, k int) (DepthResult, *cegis.Result, error) {
			calls = append(calls, k)
			return DepthResult{}, &cegis.Result{}, nil
		})
		if err != nil || won != 0 || len(out) != 1 || !reflect.DeepEqual(calls, []int{0}) {
			t.Errorf("fanout %d: won=%d slots=%d calls=%v err=%v, want slot 0 alone", fanout, won, len(out), calls, err)
		}
	}
}

// Random scripts under the race detector: the winner is a decided slot,
// every other slot that ran is Canceled, waste is theirs alone, and no
// slot goroutine outlives hedge.
func TestHedgeStress(t *testing.T) {
	setStagger(t, time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	verdicts := []string{"feasible", "infeasible", "block"}
	for trial := 0; trial < 50; trial++ {
		fanout := 2 + rng.Intn(3)
		slots := make([]slotFn, fanout)
		decides := false
		for k := range slots {
			v, delay := verdicts[rng.Intn(len(verdicts))], time.Duration(rng.Intn(3))*time.Millisecond
			decides = decides || v != "block"
			slots[k] = func(ctx context.Context) string {
				if v == "block" {
					return blocked(ctx)
				}
				time.Sleep(delay)
				return v
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		out, won, err := hedge(ctx, fanout, fakeRun(slots...))
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if decides != (won >= 0) {
			t.Fatalf("trial %d: won=%d, but a slot decides: %v", trial, won, decides)
		}
		for i, s := range out {
			if i == won && (s.dr.Canceled || s.res.TimedOut) {
				t.Errorf("trial %d: winner %+v did not decide", trial, s.dr)
			}
			if i != won && won >= 0 && (!s.dr.Canceled || s.dr.TimedOut) {
				t.Errorf("trial %d: loser %+v not Canceled", trial, s.dr)
			}
		}
	}
}

// No goroutine outlives hedge, whichever slot decides.
func TestHedgeNoLeaks(t *testing.T) {
	setStagger(t, time.Millisecond)
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		slots := []slotFn{blocked, blocked, blocked, blocked}
		slots[trial%4] = returns("feasible")
		if _, won, err := hedge(context.Background(), 4, fakeRun(slots...)); err != nil || won < 0 {
			t.Fatalf("trial %d: won=%d err=%v", trial, won, err)
		}
	}
	// Slots that never started exit on cancellation; give the scheduler a
	// moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after hedging, %d before", n, before)
	}
}

// A hedged compile still returns the minimum feasible depth, and its
// configuration behaves exactly like the source program.
func TestHedgedFindsMinimumDepth(t *testing.T) {
	setStagger(t, time.Millisecond)
	prog := mustParse(t, "dep2", dep2Src)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	opts := dep2Options()
	opts.SeedFanout = 2
	rep, err := Compile(ctx, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible || rep.Usage.Stages != 2 {
		t.Fatalf("feasible=%v stages=%d, want feasible at 2 stages", rep.Feasible, rep.Usage.Stages)
	}
	if rep.Winner == "" {
		t.Error("hedged report has no winner attribution")
	}

	// Cross-check the winning configuration against the interpreter on a
	// fresh input sweep (the compile already cross-checked; this guards
	// the plumbing from hedge to report).
	in := interp.MustNew(rep.Config.Grid.WordWidth)
	snap := interp.NewSnapshot()
	snap.State["s1"], snap.State["s2"] = 0, 0
	state := map[string]uint64{"s1": 0, "s2": 0}
	for x := uint64(0); x < 50; x++ {
		snap.Pkt["x"] = x
		want, err := in.Run(prog, snap)
		if err != nil {
			t.Fatal(err)
		}
		_, state = rep.Config.Exec(map[string]uint64{"x": x}, state)
		if state["s1"] != want.State["s1"] || state["s2"] != want.State["s2"] {
			t.Fatalf("x=%d: config state %v, program state %v", x, state, want.State)
		}
		snap = want
	}
}

// Seed fanout must not leak into the cache fingerprint: a hedged compile
// and a sequential compile of the same program share one entry. With no
// stagger both slots run at the deciding depth.
func TestHedgedSharesCacheFingerprint(t *testing.T) {
	setStagger(t, 0)
	prog := mustParse(t, "dep2", dep2Src)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	cache := solcache.New(16)
	opts := dep2Options()
	opts.Cache = cache
	opts.SeedFanout = 2
	first, err := Compile(ctx, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first compile unexpectedly hit the cache")
	}
	slots := 0
	for _, d := range first.Depths {
		if d.Stages == first.Usage.Stages {
			slots++
		}
	}
	if slots != 2 {
		t.Fatalf("%d slots ran at the deciding depth, want 2", slots)
	}

	seq := dep2Options()
	seq.Cache = cache
	second, err := Compile(ctx, prog, seq)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("sequential compile missed the entry the hedged compile populated")
	}
	if second.Usage.Stages != first.Usage.Stages {
		t.Fatalf("cached stages %d, hedged stages %d", second.Usage.Stages, first.Usage.Stages)
	}
}
