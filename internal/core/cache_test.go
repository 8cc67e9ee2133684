package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/solcache"
)

// TestWarmCacheSkipsSynthesis is the acceptance-criteria test: a
// recompilation of a canonically identical program must return the cached
// pisa.Config without invoking cegis.SynthesizeOn, asserted through the obs
// core.attempts counter (incremented once per synthesis attempt).
func TestWarmCacheSkipsSynthesis(t *testing.T) {
	b, err := programs.ByName("sampling")
	if err != nil {
		t.Fatal(err)
	}
	cache := solcache.New(8)
	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = obs.ContextWithMetrics(ctx, reg)

	opts := benchOptions(b)
	opts.Cache = cache

	cold, err := Compile(ctx, b.Parse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Feasible || cold.Cached {
		t.Fatalf("cold compile: feasible=%v cached=%v", cold.Feasible, cold.Cached)
	}
	attempts := reg.Counter("core.attempts").Value()
	if attempts == 0 {
		t.Fatal("cold compile recorded no synthesis attempts")
	}
	if hits := reg.Counter("solcache.hits").Value(); hits != 0 {
		t.Fatalf("cold compile recorded %d cache hits", hits)
	}

	// A different seed must still hit: the fingerprint excludes it.
	opts.Seed = opts.Seed + 1000
	warm, err := Compile(ctx, b.Parse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || !warm.Feasible {
		t.Fatalf("warm compile: cached=%v feasible=%v", warm.Cached, warm.Feasible)
	}
	if got := reg.Counter("core.attempts").Value(); got != attempts {
		t.Errorf("warm compile invoked cegis.SynthesizeOn: core.attempts %d -> %d", attempts, got)
	}
	if got := reg.Counter("solcache.hits").Value(); got != 1 {
		t.Errorf("solcache.hits = %d, want 1", got)
	}
	if !reflect.DeepEqual(warm.Config, cold.Config) {
		t.Error("warm compile returned a different configuration")
	}
	if warm.Usage != cold.Usage {
		t.Errorf("warm usage %+v != cold usage %+v", warm.Usage, cold.Usage)
	}
	if len(warm.Depths) != 0 {
		t.Errorf("cached report carries %d depth probes, want none", len(warm.Depths))
	}
}

// TestCacheHitTranslatesVariableNames: the cache deliberately collides
// alpha-renamed programs, so a hit from a renamed-but-canonically-equal
// program must return a config naming *that* program's variables — not the
// variables of whichever program populated the cache — and must not clobber
// the cached entry for later requesters.
func TestCacheHitTranslatesVariableNames(t *testing.T) {
	const srcA = `
int count = 0;
if (count == 10) {
  count = 0;
  pkt.sample = 1;
} else {
  count = count + 1;
  pkt.sample = 0;
}
`
	// srcB is srcA under a sort-order-preserving alpha-renaming
	// (count->tally, sample->tag): same canonical problem, different names.
	const srcB = `
int tally = 0;
if (tally == 10) {
  tally = 0;
  pkt.tag = 1;
} else {
  tally = tally + 1;
  pkt.tag = 0;
}
`
	parse := func(name, src string) *ast.Program {
		p, err := parser.Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cache := solcache.New(8)
	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = obs.ContextWithMetrics(ctx, reg)
	opts := Options{
		Width:       2,
		MaxStages:   3,
		StatefulALU: alu.Stateful{Kind: alu.IfElseRaw},
		Seed:        7,
		Cache:       cache,
	}

	cold, err := Compile(ctx, parse("a", srcA), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Feasible || cold.Cached {
		t.Fatalf("cold compile: feasible=%v cached=%v", cold.Feasible, cold.Cached)
	}
	attempts := reg.Counter("core.attempts").Value()

	warm, err := Compile(ctx, parse("b", srcB), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || !warm.Feasible {
		t.Fatalf("renamed compile: cached=%v feasible=%v, want a cache hit", warm.Cached, warm.Feasible)
	}
	if got := reg.Counter("core.attempts").Value(); got != attempts {
		t.Errorf("renamed compile re-ran synthesis: core.attempts %d -> %d", attempts, got)
	}
	if f := warm.Config.Fields; len(f) != 1 || f[0] != "tag" {
		t.Errorf("hit config fields = %v, want b's own [tag]", f)
	}
	if s := warm.Config.States; len(s) != 1 || s[0] != "tally" {
		t.Errorf("hit config states = %v, want b's own [tally]", s)
	}

	// The cached entry must be untouched: a's names come back for a.
	again, err := Compile(ctx, parse("a", srcA), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("recompile of the original program missed the cache")
	}
	if f, s := again.Config.Fields, again.Config.States; f[0] != "sample" || s[0] != "count" {
		t.Errorf("original program's hit names %v/%v, want [sample]/[count]", f, s)
	}
}

// TestConcurrentCompilesShareOneRun drives the singleflight path through
// core.Compile itself: concurrent compilations of the same program must
// share a single CEGIS run.
func TestConcurrentCompilesShareOneRun(t *testing.T) {
	b, err := programs.ByName("sampling")
	if err != nil {
		t.Fatal(err)
	}
	cache := solcache.New(8)
	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = obs.ContextWithMetrics(ctx, reg)

	const n = 4
	var wg sync.WaitGroup
	reps := make([]*Report, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := benchOptions(b)
			opts.Cache = cache
			opts.Seed = int64(i) // seeds differ; canonical problem does not
			reps[i], errs[i] = Compile(ctx, b.Parse(), opts)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("compile %d: %v", i, errs[i])
		}
		if !reps[i].Feasible {
			t.Fatalf("compile %d infeasible", i)
		}
	}
	if misses := reg.Counter("solcache.misses").Value(); misses != 1 {
		t.Errorf("solcache.misses = %d, want 1 (one shared CEGIS run)", misses)
	}
	if got := reg.Counter("solcache.hits").Value() + reg.Counter("solcache.shared").Value(); got != n-1 {
		t.Errorf("hits+shared = %d, want %d", got, n-1)
	}
}
