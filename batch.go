package qsmt

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"context"

	"qsmt/internal/anneal"
	"qsmt/internal/portfolio"
	"qsmt/internal/qubo"
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
// constraint runs the full SMT loop (with sharding enabled — see
// Options.Shard) and at most Options.BatchWorkers sampling operations
// are in flight at once across the whole batch. Per-constraint failures
// do not abort the batch; they are reported per item. The returned
// error is non-nil only when ctx ended before the batch completed (the
// per-item errors then say which constraints were cut short).
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
	m := s.opts.Metrics
	m.batchInFlight(1)
	defer m.batchInFlight(-1)

	batched := s.batchSolver()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c Constraint) {
			defer wg.Done()
			res, err := batched.SolveContext(ctx, c)
			br.Items[i] = BatchItem{Result: res, Err: err}
		}(i, c)
	}
	wg.Wait()
	br.Elapsed = time.Since(start)
	for _, it := range br.Items {
		if it.Err != nil {
			br.Failed++
		} else {
			br.Solved++
			br.Shards += it.Result.Shards
		}
	}
	m.recordBatch(len(cs), br.Failed, br.Elapsed)
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
	m := s.opts.Metrics
	m.batchInFlight(1)
	defer m.batchInFlight(-1)

	batched := s.batchSolver()
	batched.opts.Shard = false // enumerate is whole-model; see doc comment
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c Constraint) {
			defer wg.Done()
			ws, err := batched.EnumerateContext(ctx, c, k)
			items[i] = EnumerateBatchItem{Witnesses: ws, Err: err}
		}(i, c)
	}
	wg.Wait()
	failed := 0
	for _, it := range items {
		if it.Err != nil {
			failed++
		}
	}
	m.recordBatch(len(cs), failed, time.Since(start))
	return items, ctx.Err()
}

// batchSolver returns a copy of s configured for batch execution:
// sharding on and a worker gate bounding concurrent sampling.
func (s *Solver) batchSolver() *Solver {
	cp := &Solver{opts: s.opts}
	cp.opts.Shard = true
	workers := cp.opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cp.gate = make(chan struct{}, workers)
	return cp
}

// shardPlan is one shard of a sharded solve, classified by how it will
// be solved.
type shardPlan struct {
	shard    qubo.Shard
	compiled *qubo.Compiled // nil for closed-form shards
	exact    bool           // exhaustively enumerated instead of sampled
	trivial  bool           // coupler-free: solved closed-form
	seeds    [][]qubo.Bit   // warm-start states for sampled shards
}

// planShards classifies the component shards of a model: coupler-free
// shards solve closed-form, small shards enumerate exactly, the rest
// are compiled for the sampler (with warm-start seeds when supported).
// Shared by the sat path (solveSharded) and the optimize path
// (optimizeSharded).
func (s *Solver) planShards(shards []qubo.Shard, st *SolveStats) []shardPlan {
	plans := make([]shardPlan, len(shards))
	for i, sh := range shards {
		if sh.Model.NumQuadratic() == 0 {
			plans[i] = shardPlan{shard: sh, trivial: true}
			st.ExactShards++
			continue
		}
		compiled := s.compileModel(sh.Model, st)
		exact := s.opts.ExactShardVars > 0 && compiled.N <= s.opts.ExactShardVars
		if exact {
			st.ExactShards++
		}
		plans[i] = shardPlan{shard: sh, compiled: compiled, exact: exact}
		if !exact && supportsWarmStart(s.samplerFor(0)) {
			plans[i].seeds = s.warmSeeds(compiled)
		}
	}
	return plans
}

// sampleShards solves every shard of one attempt. Closed-form and
// exact shards are solved inline (microseconds each); sampled or raced
// shards run concurrently, one goroutine each. Every sampling call
// individually acquires a batch-gate slot (when one is installed), so
// shard fan-out from many batched constraints still respects the global
// worker bound. The returned error names the failing shard.
func (s *Solver) sampleShards(ctx context.Context, plans []shardPlan, attempt int, st *SolveStats) ([]*anneal.SampleSet, error) {
	sets := make([]*anneal.SampleSet, len(plans))
	errs := make([]error, len(plans))
	racing := s.portfolioShards()
	var outcomes []*portfolio.Outcome
	if racing {
		outcomes = make([]*portfolio.Outcome, len(plans))
	}
	var wg sync.WaitGroup
	for i := range plans {
		p := &plans[i]
		if p.trivial || p.exact {
			continue
		}
		wg.Add(1)
		go func(i int, p *shardPlan) {
			defer wg.Done()
			// Stat counters are updated after wg.Wait() (below) to keep
			// the goroutines write-free on st.
			if racing {
				o, err := s.racePortfolio(ctx, p.compiled, p.seeds, attempt, i)
				if err != nil {
					errs[i] = err
					return
				}
				outcomes[i] = o
				sets[i] = o.Set
				return
			}
			sampler, _ := warmSampler(s.samplerFor(attempt), p.seeds)
			sets[i], errs[i] = s.sample(ctx, sampler, p.compiled)
		}(i, p)
	}
	for i := range plans {
		switch p := &plans[i]; {
		case p.trivial:
			sets[i] = solveLinearShard(p.shard.Model, s.opts.Seed, attempt, i)
		case p.exact:
			// One enumeration worker: a shard of ≤ ExactShardVars
			// variables enumerates faster than goroutines start.
			sets[i], errs[i] = s.sample(ctx, &anneal.ExactSolver{MaxStates: s.opts.CandidatesPerAttempt, Workers: 1}, p.compiled)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, len(plans), err)
		}
	}
	for _, o := range outcomes {
		if o != nil {
			st.observePortfolio(o)
		}
	}
	for i := range plans {
		if len(plans[i].seeds) == 0 {
			continue
		}
		st.WarmSeeded++
		if ss := sets[i]; ss.Len() > 0 && ss.Best().Warm {
			st.WarmHits++
		}
	}
	return sets, nil
}

// shardSamplerName names the sampling tier a sharded attempt runs on:
// the portfolio scheduler when racing, else the configured sampler.
func (s *Solver) shardSamplerName(attempt int) string {
	if s.portfolioShards() {
		return "portfolio"
	}
	return samplerName(s.samplerFor(attempt))
}

// aggregateShardSets folds per-shard sample statistics into st and
// returns the deepest usable candidate rank. Energies are additive over
// components (plus the parent offset, which the shards do not carry);
// ground fractions multiply because the shards are sampled
// independently. maxLen is -1 when any shard's set came back empty.
func aggregateShardSets(model *qubo.Model, sets []*anneal.SampleSet, st *SolveStats) (maxLen int) {
	best, mean, gf := model.Offset(), model.Offset(), 1.0
	for _, ss := range sets {
		st.Reads += ss.TotalReads()
		st.observeKernel(ss.Kernel)
		if ss.Len() == 0 {
			return -1
		}
		if ss.Len() > maxLen {
			maxLen = ss.Len()
		}
		best += ss.Best().Energy
		mean += ss.MeanEnergy()
		gf *= ss.GroundFraction(0)
	}
	if maxLen > 0 {
		st.observeBest(best)
		st.MeanEnergy = mean
		st.GroundFraction = gf
	}
	return maxLen
}

// shardCandidates generates the merged candidates of one sharded
// attempt, lazily and in order:
//
//  1. The k-th-best merges: the k-th best sample of every shard (clamped
//     to each shard's sample count) scattered into one assignment, for k
//     below the longest shard set. Candidate 0 is the attempt's global
//     best.
//  2. Draws from the cross product of the shards' ground manifolds, up
//     to limit candidates in all. A draw picks one of each sampled or
//     exact shard's best-energy rows at random and refills the free
//     (zero-coefficient) variables of every coupler-free shard: all
//     zeros on the first draw, all ones on the second, seeded bits after.
//     A draw that repeats an earlier candidate is skipped.
//
// Every candidate's energy is its exact total energy (the shards are
// independent and the model offset is counted once). The draw state is
// built only when the k-th-best merges run out, so an attempt whose
// first candidate verifies allocates nothing but that candidate.
type shardCandidates struct {
	model *qubo.Model
	plans []shardPlan
	sets  []*anneal.SampleSet
	rows  int // k-th-best merges, emitted first
	limit int // candidates in all

	emitted int
	buf     []qubo.Bit // the current candidate
	// Draw state, built on the first draw.
	drawing bool
	draws   int
	state   uint64
	ground  []int    // per shard: its best-energy row count
	free    [][]int  // per coupler-free shard: global indices of its free variables
	seen    []uint64 // hashes of the emitted candidates
}

// newShardCandidates prepares the candidate stream of one attempt;
// maxLen is aggregateShardSets' deepest candidate rank (≥ 1).
func newShardCandidates(model *qubo.Model, plans []shardPlan, sets []*anneal.SampleSet, maxLen, limit int, seed int64, attempt int) shardCandidates {
	rows := maxLen
	if rows > limit {
		rows = limit
	}
	return shardCandidates{
		model: model, plans: plans, sets: sets, rows: rows, limit: limit,
		state: uint64(seed)*0xd1b54a32d192ed03 ^ uint64(attempt)*0x9e3779b97f4a7c15,
	}
}

// next returns the next candidate, or ok=false when the stream is done.
// Every candidate is written to one buffer, so x is valid only until
// the next call.
func (g *shardCandidates) next() (x []qubo.Bit, energy float64, ok bool) {
	if g.emitted >= g.limit {
		return nil, 0, false
	}
	if g.buf == nil {
		g.buf = make([]qubo.Bit, g.model.N())
	}
	if g.emitted < g.rows {
		energy = g.merge(g.buf, g.emitted)
	} else if energy, ok = g.draw(); !ok {
		return nil, 0, false
	}
	g.emitted++
	return g.buf, energy, true
}

// merge scatters the k-th best sample of every shard into x and returns
// the merged energy.
func (g *shardCandidates) merge(x []qubo.Bit, k int) float64 {
	energy := g.model.Offset()
	for i := range g.plans {
		ss := g.sets[i]
		idx := k
		if idx >= ss.Len() {
			idx = ss.Len() - 1
		}
		smp := ss.Samples[idx]
		g.plans[i].shard.Scatter(x, smp.X)
		energy += smp.Energy
	}
	return energy
}

// maxDrawsPerCandidate bounds the draws spent per candidate slot, so a
// cross product smaller than limit ends the stream instead of spinning
// on repeats.
const maxDrawsPerCandidate = 4

// draw writes the next cross-product draw that differs from every
// emitted candidate to the buffer and returns its energy.
func (g *shardCandidates) draw() (float64, bool) {
	if !g.drawing {
		g.drawing = true
		if !g.startDrawing() {
			g.limit = g.emitted
			return 0, false
		}
	}
	for g.draws < maxDrawsPerCandidate*g.limit {
		d := g.draws
		g.draws++
		x := g.buf
		energy := g.model.Offset()
		for i := range g.plans {
			r := 0
			if n := g.ground[i]; n > 1 {
				r = int(splitmix64(&g.state) % uint64(n))
			}
			smp := g.sets[i].Samples[r]
			g.plans[i].shard.Scatter(x, smp.X)
			energy += smp.Energy
			for _, v := range g.free[i] {
				switch d {
				case 0:
					x[v] = 0
				case 1:
					x[v] = 1
				default:
					x[v] = qubo.Bit(splitmix64(&g.state) & 1)
				}
			}
		}
		if h := bitsHash(x); !g.emittedBefore(h) {
			g.seen = append(g.seen, h)
			return energy, true
		}
	}
	return 0, false
}

// startDrawing builds the draw state; it reports false when every shard
// has exactly one best-energy row and no free variables, so every draw
// would repeat candidate 0.
func (g *shardCandidates) startDrawing() bool {
	g.ground = make([]int, len(g.plans))
	g.free = make([][]int, len(g.plans))
	varied := false
	for i := range g.plans {
		p := &g.plans[i]
		if p.trivial {
			g.ground[i] = 1
			m := p.shard.Model
			for k := 0; k < m.N(); k++ {
				if m.Linear(k) == 0 {
					g.free[i] = append(g.free[i], p.shard.Vars[k])
				}
			}
			varied = varied || len(g.free[i]) > 0
			continue
		}
		samples := g.sets[i].Samples
		tol := anneal.TieTolerance(samples[0].Energy)
		n := 1
		for n < len(samples) && samples[n].Energy-samples[0].Energy <= tol {
			n++
		}
		g.ground[i] = n
		varied = varied || n > 1
	}
	if !varied {
		return false
	}
	g.seen = make([]uint64, g.rows, g.limit)
	for k := range g.seen {
		g.merge(g.buf, k)
		g.seen[k] = bitsHash(g.buf)
	}
	return true
}

// emittedBefore reports whether a candidate with hash h was emitted.
func (g *shardCandidates) emittedBefore(h uint64) bool {
	for _, s := range g.seen {
		if s == h {
			return true
		}
	}
	return false
}

// bitsHash is the FNV-1a hash of an assignment, the candidate stream's
// repeat filter.
func bitsHash(x []qubo.Bit) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range x {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// solveSharded attempts the component decomposition of model — the
// (possibly presolve-reduced) working model, whose samples red lifts
// back to the fullN-variable space. handled is false when the
// interaction graph is connected (≤ 1 component) — the caller then
// falls back to whole-model solving on the model it already built. The
// decomposition is exact: no coupler crosses a component boundary, so
// merging per-shard minima yields a global minimum, and merged
// candidate energies are exact total energies (the reduced model's
// offset carries the energy presolve folded away).
func (s *Solver) solveSharded(ctx context.Context, c Constraint, model *qubo.Model, red *qubo.Reduction, fullN int, start time.Time, st *SolveStats) (*Result, error, bool) {
	shards := qubo.Components(model)
	if len(shards) <= 1 {
		return nil, nil, false
	}
	st.Shards = len(shards)
	plans := s.planShards(shards, st)
	st.Compile = time.Since(start) - st.Presolve

	var lastCheck error
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("qsmt: solving %s: %w", c.Name(), err), true
		}
		st.Attempts = attempt + 1
		st.Sampler = s.shardSamplerName(attempt)

		phase := time.Now()
		sets, err := s.sampleShards(ctx, plans, attempt, st)
		st.Sample += time.Since(phase)
		if err != nil {
			return nil, fmt.Errorf("qsmt: sampling %s: %w", c.Name(), err), true
		}

		maxLen := aggregateShardSets(model, sets, st)
		if maxLen <= 0 {
			// A (custom) sampler returned an empty set for some shard; no
			// candidate can be merged this attempt.
			lastCheck = fmt.Errorf("qsmt: empty sample set for a shard of %s", c.Name())
			continue
		}

		// Merge the shards' samples into reduced-space candidates, then
		// lift each through the presolve reduction to the full variable
		// space.
		cands := newShardCandidates(model, plans, sets, maxLen, s.opts.CandidatesPerAttempt, s.opts.Seed, attempt)
		phase = time.Now()
		for {
			x, energy, more := cands.next()
			if !more {
				break
			}
			w, ok, fatal, checkErr := examineCandidate(c, liftBits(red, x), st)
			if fatal != nil {
				st.DecodeVerify += time.Since(phase)
				return nil, fatal, true
			}
			if !ok {
				lastCheck = checkErr
				continue
			}
			st.DecodeVerify += time.Since(phase)
			res := &Result{
				Witness:  w,
				Energy:   energy,
				Attempts: attempt + 1,
				Vars:     fullN,
				Shards:   len(shards),
				Elapsed:  time.Since(start),
			}
			res.Stats = *st
			return res, nil, true
		}
		st.DecodeVerify += time.Since(phase)

		// With no sampled shards the attempt is deterministic up to
		// free-variable tie-breaking; further attempts still reshuffle
		// those, so the retry loop keeps going (it is cheap here).
	}
	if lastCheck != nil {
		return nil, fmt.Errorf("%w (last failure: %v)", ErrNoModel, lastCheck), true
	}
	return nil, ErrNoModel, true
}

// solveLinearShard solves a coupler-free shard closed-form: each
// variable independently minimizes its diagonal coefficient (1 when
// negative, 0 when positive). Zero-coefficient variables are free in
// the energy; they are filled from a deterministic splitmix64 stream
// keyed by (seed, attempt, shard) so retries explore the degenerate
// manifold instead of always returning the same corner.
func solveLinearShard(m *qubo.Model, seed int64, attempt, shard int) *anneal.SampleSet {
	x := make([]qubo.Bit, m.N())
	energy := 0.0
	state := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(attempt)*0xbf58476d1ce4e5b9 ^ uint64(shard)
	for i := range x {
		v := m.Linear(i)
		switch {
		case v < 0:
			x[i] = 1
			energy += v
		case v == 0:
			x[i] = qubo.Bit(splitmix64(&state) & 1)
		}
	}
	return &anneal.SampleSet{Samples: []anneal.Sample{{X: x, Energy: energy, Occurrences: 1}}}
}

// splitmix64 advances the state and returns the next 64-bit draw
// (Steele et al.'s SplitMix64, the stream-seeding generator the
// annealing substrate also derives its streams from).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
