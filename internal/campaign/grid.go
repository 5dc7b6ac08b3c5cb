package campaign

// This file holds the one cell loop Campaign.Run and Robustness.Run
// share: a bounded worker pool that is cancellable, derives a
// deterministic seed per cell, resumes the cells a journal already
// holds, journals the rest as they finish, and survives individual cell
// failures, returning every completed cell plus a joined error instead
// of throwing the whole grid away.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// grid describes one run of the cell loop. The zero value of every
// field except total is usable.
type grid struct {
	// total is the number of cells.
	total int
	// parallelism bounds concurrent cells (<=0 means GOMAXPROCS).
	parallelism int
	// seed is the base seed every per-cell seed is derived from.
	seed uint64
	// progress, when non-nil, is called after every settled cell
	// (completed, failed, or resumed) with the running count; it may be
	// called from worker goroutines concurrently.
	progress func(done, total int)
	// journal, when non-nil, receives every cell the loop simulates.
	journal *Journal
	// resume holds journaled cells keyed by CellRecord.Key; matching
	// cells are taken from it instead of being simulated.
	resume map[string]CellRecord
}

// cellSeed derives the deterministic seed of cell i from the base seed
// via rng.DeriveSeed (the repository's shared SplitMix64 child-seed
// scheme — this used to be an inline copy of its arithmetic). Cells get
// statistically independent seeds, yet the mapping is a pure function
// of (base, i), so an interrupted and resumed grid sees identical
// seeds, and journals keyed by derived seeds stay valid.
func cellSeed(base uint64, i int) uint64 {
	return rng.DeriveSeed(base, uint64(i))
}

// runCells settles every cell of g and returns the completed ones in
// grid order, regardless of completion order. key(i) is cell i's journal
// identity, every key field but the seed, which runCells derives. A
// cell whose key g.resume holds is taken from that record; any other is
// simulated by run, which records its measurements in the cell's record,
// and the record is journaled. Either way result builds the caller's
// value from the record, so a resumed cell equals an uninterrupted one
// by construction. Cancelling ctx stops dispatching new cells; on error
// (cell failures or cancellation) runCells returns every completed cell
// together with the joined error, so journaled progress and partial
// results survive.
func runCells[T any](ctx context.Context, g grid, key func(i int) CellRecord,
	run func(i int, rec *CellRecord) error, result func(i int, rec CellRecord) T) ([]T, error) {
	results := make([]T, g.total)
	completed := make([]bool, g.total)
	recs := make([]CellRecord, g.total)
	for i := range recs {
		recs[i] = key(i)
		recs[i].Seed = cellSeed(g.seed, i)
		if rec, ok := g.resume[recs[i].Key()]; ok {
			results[i], completed[i] = result(i, rec), true
		}
	}
	err := g.run(ctx, completed, func(i int) error {
		rec := recs[i]
		if err := run(i, &rec); err != nil {
			return err
		}
		results[i], completed[i] = result(i, rec), true
		if g.journal != nil {
			return g.journal.Append(rec)
		}
		return nil
	})
	if err != nil {
		return compact(results, completed), err
	}
	return results, nil
}

// compact keeps the completed cells of a partially-run grid, preserving
// grid order.
func compact[T any](results []T, completed []bool) []T {
	out := results[:0]
	for i, ok := range completed {
		if ok {
			out = append(out, results[i])
		}
	}
	return out
}

// run executes cell(i) for every i not already done on a bounded worker
// pool. Cancellation of ctx stops dispatching new cells and is reported
// in the returned error; cells that fail do not stop the rest of the
// grid. The returned error joins every cell error (and the context
// error, if any); nil means every cell settled successfully.
func (g grid) run(ctx context.Context, done []bool, cell func(i int) error) error {
	par := g.parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, g.total)
	var settled atomic.Int64
	settle := func(i int, err error) {
		errs[i] = err
		if g.progress != nil {
			g.progress(int(settled.Add(1)), g.total)
		}
	}

	tasks := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < par; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				if ctx.Err() != nil {
					// Canceled while queued: leave the cell unrun so a
					// resume picks it up.
					continue
				}
				settle(i, cell(i))
			}
		}()
	}

dispatch:
	for i := 0; i < g.total; i++ {
		if done[i] {
			settle(i, nil)
			continue
		}
		select {
		case tasks <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(tasks)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
