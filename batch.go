package qsmt

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// This file is the batch/shard layer: the paper's workload is many
// small, independent QUBOs (one per constraint, 7 bits per character),
// exactly the shape that rewards batching across constraints and
// sharding within them. SolveBatch runs a fleet of constraints over a
// bounded worker pool; each solve decomposes its model into the
// connected components of the variable-interaction graph
// (qubo.Components) and solves the components as independent shards —
// coupler-free shards closed-form, small shards by exact enumeration,
// the rest through the configured sampler, which may be a remote.Pool
// fanning the shards out across an annealerd fleet.

// BatchItem is the outcome of one constraint of a batch, in submission
// order. Exactly one of Result and Err is non-nil.
type BatchItem struct {
	Result *Result
	Err    error
}

// BatchResult reports a whole SolveBatch call.
type BatchResult struct {
	Items   []BatchItem   // one per submitted constraint, same order
	Solved  int           // items with a verified witness
	Failed  int           // items with an error
	Shards  int           // shards solved across successful items
	Elapsed time.Duration // wall-clock time for the whole batch
}

// SolveBatch solves many independent constraints concurrently: every
// constraint runs the full SMT loop on the shard tier plan, whatever the
// sampler (see SolveContext), and at most Options.BatchWorkers sampling
// operations are in flight at once across the whole batch.
// Per-constraint failures do not abort the batch; they are reported per
// item. The returned error is non-nil only when ctx ended before the
// batch completed (the per-item errors then say which constraints were
// cut short).
//
// The Solver's Sampler must be safe for concurrent use (all module
// samplers and the remote client/pool are); a remote.Pool sampler makes
// SolveBatch fan shards out across the pool's backends.
func (s *Solver) SolveBatch(ctx context.Context, cs []Constraint) (*BatchResult, error) {
	start := time.Now()
	br := &BatchResult{Items: make([]BatchItem, len(cs))}
	if len(cs) == 0 {
		return br, ctx.Err()
	}
	s.fanOut(len(cs), func(batched *Solver, i int) {
		res, err := batched.SolveContext(ctx, cs[i])
		br.Items[i] = BatchItem{Result: res, Err: err}
	})
	br.Elapsed = time.Since(start)
	for _, it := range br.Items {
		if it.Err != nil {
			br.Failed++
		} else {
			br.Solved++
			br.Shards += it.Result.Shards
		}
	}
	s.opts.Metrics.recordBatch(len(cs), br.Failed, br.Elapsed)
	return br, ctx.Err()
}

// EnumerateBatchItem is the outcome of one constraint of an
// EnumerateBatch call.
type EnumerateBatchItem struct {
	Witnesses []Witness
	Err       error
}

// EnumerateBatch enumerates up to k distinct verified witnesses for
// every constraint concurrently, under the same bounded worker pool as
// SolveBatch. Enumeration runs whole-model (sharded enumeration would
// have to walk the cross product of per-shard manifolds; the per-
// constraint fan-out is where the throughput is). The returned error is
// non-nil only when ctx ended early.
func (s *Solver) EnumerateBatch(ctx context.Context, cs []Constraint, k int) ([]EnumerateBatchItem, error) {
	start := time.Now()
	items := make([]EnumerateBatchItem, len(cs))
	if len(cs) == 0 {
		return items, ctx.Err()
	}
	s.fanOut(len(cs), func(batched *Solver, i int) {
		ws, err := batched.EnumerateContext(ctx, cs[i], k)
		items[i] = EnumerateBatchItem{Witnesses: ws, Err: err}
	})
	failed := 0
	for _, it := range items {
		if it.Err != nil {
			failed++
		}
	}
	s.opts.Metrics.recordBatch(len(cs), failed, time.Since(start))
	return items, ctx.Err()
}

// fanOut runs solve for every constraint index concurrently, with the
// batch counted in flight, on one batch copy of s: its worker gate
// bounds concurrent sampling and puts every solve of the batch on the
// shard tier plan (see newPlan).
func (s *Solver) fanOut(n int, solve func(batched *Solver, i int)) {
	m := s.opts.Metrics
	m.batchInFlight(1)
	defer m.batchInFlight(-1)
	workers := s.opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batched := &Solver{opts: s.opts, gate: make(chan struct{}, workers)}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solve(batched, i)
		}()
	}
	wg.Wait()
}
