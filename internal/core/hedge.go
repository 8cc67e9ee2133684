package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/cegis"
)

// seedStride separates hedge slots' CEGIS seeds far enough that their
// random test sets share no obvious structure.
const seedStride = 1_000_003

// hedgeStagger is how long after a depth's attempt begins each further
// seed slot joins it: slot k starts k*hedgeStagger in. A variable so tests
// can shorten it.
var hedgeStagger = 500 * time.Millisecond

// slotRun is one hedge slot's attempt: its probe record and CEGIS result.
type slotRun struct {
	dr  DepthResult
	res *cegis.Result
}

// hedge runs one depth's attempt across fanout seed slots and returns the
// slots that ran, in slot order, with the index of the one whose verdict
// decides the depth, or -1 when none does because ctx expired first.
//
// Slot 0 runs at once on the caller's goroutine. Slot k joins
// k*hedgeStagger later unless the depth is already decided, so a depth
// that resolves inside the stagger never starts a hedge. The first
// definitive verdict — feasible, or infeasible, since synthesis UNSAT at a
// depth is a proof — cancels the other slots through their context, which
// the SAT solver's stop hook (sat.SetStop) observes mid-solve; those slots
// come back Canceled. An attempt error before the depth is decided cancels
// the others and is returned once every slot has stopped; a slot that
// errors after a sibling decided the depth was canceled, and is dropped.
// With fanout <= 1 only slot 0 runs, and no goroutine starts.
func hedge(ctx context.Context, fanout int, run func(ctx context.Context, slot int) (DepthResult, *cegis.Result, error)) ([]slotRun, int, error) {
	fanout = max(fanout, 1)
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		runs     = make([]slotRun, fanout) // res stays nil for a slot that never ran
		won      = -1
		firstErr error
	)
	runSlot := func(k int) {
		dr, res, err := run(hctx, k)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			if won < 0 && firstErr == nil {
				firstErr = err
			}
			cancel()
			return
		case won < 0 && !res.TimedOut:
			won = k
			cancel()
		}
		runs[k] = slotRun{dr, res}
	}
	stagger := hedgeStagger
	var wg sync.WaitGroup
	for k := 1; k < fanout; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTimer(time.Duration(k) * stagger)
			defer t.Stop()
			select {
			case <-t.C:
				if hctx.Err() == nil {
					runSlot(k)
				}
			case <-hctx.Done():
			}
		}()
	}
	runSlot(0)
	wg.Wait()
	if firstErr != nil {
		return nil, -1, firstErr
	}

	var out []slotRun
	at := -1
	for k, r := range runs {
		if r.res == nil {
			continue
		}
		if k == won {
			at = len(out)
		} else if won >= 0 {
			r.dr.Canceled, r.dr.TimedOut = true, false
		}
		out = append(out, r)
	}
	return out, at, nil
}
