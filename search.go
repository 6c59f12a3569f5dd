package qsmt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// This file is the solver's one verify-retry loop, the paper's
// encode → anneal → decode/check → re-anneal cycle. Every entry point
// (Solve, SolveBatch, Optimize, Enumerate, IncrementalSession) builds a
// plan over its working model, supplies a sampling step, and hands the
// merged candidates to an acceptor:
//
//   - plan: the presolved working model, split into connected-component
//     shards or kept whole as a one-entry plan; each entry has a tier —
//     closed-form, exact enumeration, or the configured sampler;
//   - sampling step: one sample set per plan entry per attempt
//     (sampleShards, or the incremental session's memo-backed step); an
//     exact entry is enumerated once per search and its set reused, and
//     with a compile cache once per cache entry;
//   - candidates: shardCandidates merges the entries' rows into
//     full-space assignments, lifted through the presolve reduction;
//   - acceptor: first verified witness (Solve, SolveBatch, incremental),
//     graded incumbent (Optimize, which also sweeps the exact entries'
//     feasible states against its incumbent), or k distinct witnesses
//     (Enumerate).
//
// search owns the retry policy and is the one place ErrNoModel is
// produced.

// tier says how a plan entry is solved.
type tier uint8

const (
	tierClosedForm tier = iota // coupler-free: every variable minimizes its own coefficient
	tierExact                  // ≤ ExactShardVars variables: exhaustive enumeration
	tierSampled                // the configured sampler, warm-started when it supports it
)

// shardPlan is one entry of a plan — a component shard, or the whole
// working model — with its tier and the output of the current attempt's
// sampling step.
type shardPlan struct {
	shard    *qubo.Shard    // nil for the whole-model entry
	compiled *qubo.Compiled // nil for closed-form entries
	// seeds are the initial states of a sampled entry: the solver's
	// warm-start seeds (warm), or the sampler's own states mapped into
	// the entry's space (see entryStates).
	seeds [][]qubo.Bit
	tier  tier
	warm  bool
	// reused marks an exact entry's set kept from an earlier attempt of
	// the search, or served from its compile-cache entry: no enumeration
	// ran, so its reads are not counted again.
	reused bool
	// stored is the compile-cache entry of an exact entry whose set is
	// not kept there yet; the enumerated set is written back to it.
	stored *qubo.CacheEntry

	set *anneal.SampleSet // this attempt's samples, entry-local
	err error
}

// plan is the working model of one search and how its entries are
// solved.
type plan struct {
	model   *qubo.Model     // the working model; shard entries partition its variables
	red     *qubo.Reduction // lifts working-model candidates to the full space; nil is identity
	entries []shardPlan     // one per shard (none when presolve eliminated every variable), or one for the whole model
	// whole marks a one-entry whole-model plan: its rows are emitted as
	// sampled — no Scatter (a custom sampler's off-width row must reach
	// Decode, which rejects it) and no added offset (compiled samples
	// already include it).
	whole bool
	// mergeOnly stops the candidate stream after the k-th-best merges, so
	// the cross-product draws never start (the incremental path).
	mergeOnly bool
	attempts  int // retry budget
	limit     int // candidates examined per attempt
}

// newPlan plans the working model work, whose candidates red lifts back
// to the full space of fullN variables (Solve and Optimize). With the
// default sampler, and in every solve of a batch (the batch layer's
// gated solver copy), it is the shard tier plan: the model is planned
// by its connected components, each placed by tierOf. A connected model
// is a one-component plan and a model that presolve reduced to nothing
// a zero-entry plan, whose one candidate is the empty assignment (both
// recorded as ShardFallback). The decomposition is exact: no coupler
// crosses a component boundary, so merging per-shard minima yields a
// global minimum. With a custom sampler outside a batch it is the
// one-entry plan that samples the whole compiled working model, from
// the entry states entryStates derives.
func (s *Solver) newPlan(work *qubo.Model, red *qubo.Reduction, fullN int, st *SolveStats) plan {
	if s.opts.Sampler != nil && s.gate == nil {
		pl := s.wholePlan(work, red, s.compileModel(work, st))
		p := &pl.entries[0]
		p.seeds, p.warm = s.entryStates(p.compiled, fullN, red.Project)
		return pl
	}
	shards := qubo.Components(work)
	st.Shards = len(shards)
	st.ShardFallback = len(shards) <= 1
	attempts, limit, _ := s.opts.searchLimits()
	return plan{model: work, red: red, entries: s.planShards(shards, red, fullN, st), attempts: attempts, limit: limit}
}

// wholePlan is the one-entry plan that samples the compiled working
// model with the configured sampler, without initial states.
func (s *Solver) wholePlan(work *qubo.Model, red *qubo.Reduction, compiled *qubo.Compiled) plan {
	attempts, limit, _ := s.opts.searchLimits()
	return plan{
		model: work, red: red, whole: true,
		entries:  []shardPlan{{compiled: compiled, tier: tierSampled}},
		attempts: attempts, limit: limit,
	}
}

// planShards places the component shards of a working model on their
// tiers, compiling every coupled shard and deriving the initial states
// of the sampled ones. An exact shard whose compile-cache entry keeps
// its enumerated set starts with that set; one whose entry does not
// yet is marked to fill it.
func (s *Solver) planShards(shards []qubo.Shard, red *qubo.Reduction, fullN int, st *SolveStats) []shardPlan {
	plans := make([]shardPlan, len(shards))
	for i := range shards {
		sh := &shards[i]
		plans[i].shard = sh
		if sh.Model.NumQuadratic() == 0 {
			st.ExactShards++
			continue
		}
		p := &plans[i]
		var stored *qubo.CacheEntry
		p.compiled, stored = s.compileEntry(sh.Model, st)
		p.tier = s.tierOf(p.compiled)
		if p.tier == tierExact {
			st.ExactShards++
			if stored != nil {
				if p.set = s.storedExactSet(stored); p.set == nil {
					p.stored = stored
				}
			}
			continue
		}
		p.seeds, p.warm = s.entryStates(p.compiled, fullN, func(x []qubo.Bit) []qubo.Bit {
			return restrict(red.Project(x), sh.Vars)
		})
	}
	return plans
}

// tierOf is the static tier rule for a coupled entry (coupler-free
// entries are closed-form and never compiled): exact enumeration at
// ExactShardVars variables or fewer, else the configured sampler.
func (s *Solver) tierOf(compiled *qubo.Compiled) tier {
	if _, _, exactVars := s.opts.searchLimits(); compiled.N <= exactVars {
		return tierExact
	}
	return tierSampled
}

// exactSet is an exact entry's enumerated set as kept in the slot of
// its compiled model's cache entry. Enumeration is a function of the
// model and MaxStates alone, so the set is served to every later solve
// that enumerates at the same MaxStates.
type exactSet struct {
	maxStates int
	set       *anneal.SampleSet
}

// storedExactSet returns the set kept in e's slot for this solver's
// MaxStates (CandidatesPerAttempt), nil when there is none. The set is
// shared: every reader only reads its rows.
func (s *Solver) storedExactSet(e *qubo.CacheEntry) *anneal.SampleSet {
	_, limit, _ := s.opts.searchLimits()
	if v, ok := e.Slot().(*exactSet); ok && v.maxStates == limit {
		return v.set
	}
	return nil
}

// sampleEntry solves one entry for one attempt through its tier, writing
// the entry's set and err. The only shared state it touches is the slot
// of an exact entry's cache entry, which it fills atomically, so entries
// may be sampled concurrently. A sampled shard's rows must match its width
// (Scatter places them by position); a whole-model entry's rows go to
// Decode, which rejects an off-width row itself.
func (s *Solver) sampleEntry(ctx context.Context, p *shardPlan, attempt, ordinal int) {
	switch p.tier {
	case tierClosedForm:
		p.set, p.err = solveLinearShard(p.shard.Model, s.opts.Seed, attempt, ordinal), nil
	case tierExact:
		// One enumeration worker: the call holds one batch-gate slot, and
		// DefaultExactShardVars is the crossover measured single-worker.
		_, limit, _ := s.opts.searchLimits()
		p.set, p.err = s.sample(ctx, &anneal.ExactSolver{MaxStates: limit, Workers: 1}, p.compiled)
		if p.stored != nil && p.err == nil {
			p.stored.Fill(&exactSet{maxStates: limit, set: p.set})
		}
	default:
		p.set, p.err = s.sample(ctx, withStates(s.samplerFor(attempt), p.seeds), p.compiled)
		if p.err == nil && p.shard != nil {
			for _, smp := range p.set.Samples {
				if len(smp.X) != p.compiled.N {
					p.err = fmt.Errorf("sampler returned a row of %d variables, want %d", len(smp.X), p.compiled.N)
					break
				}
			}
		}
	}
}

// observeEntry folds one sampled entry's warm-start result into st.
func (st *SolveStats) observeEntry(p *shardPlan) {
	if p.warm {
		st.WarmSeeded++
		if p.set.Len() > 0 && p.set.Best().Warm {
			st.WarmHits++
		}
	}
}

// sampleShards is the sampling step of a planned search: closed-form and
// exact entries and the first sampled one run inline, further sampled
// entries concurrently, one goroutine each. An exact entry's set is
// deterministic, so it is enumerated on the first attempt only and
// reused on every later one; with a compile cache, an entry whose set
// its cache entry already keeps (see planShards) is not enumerated at
// all. The incremental step, which does not come through here, reuses
// its exact components' memoized sets alike.
// Every sampling call acquires a batch-gate slot of its own (when one
// is installed), so the fan-out of many batched constraints still
// respects the global worker bound. The returned error names the
// failing shard.
func (s *Solver) sampleShards(ctx context.Context, pl *plan, attempt int, st *SolveStats) error {
	var wg *sync.WaitGroup // allocated only when a goroutine starts
	inline := -1
	for i := range pl.entries {
		if p := &pl.entries[i]; p.tier == tierSampled {
			if inline < 0 {
				inline = i
				continue
			}
			if wg == nil {
				wg = new(sync.WaitGroup)
			}
			wg.Add(1)
			go func(wg *sync.WaitGroup) {
				defer wg.Done()
				s.sampleEntry(ctx, p, attempt, i)
			}(wg)
		}
	}
	for i := range pl.entries {
		if p := &pl.entries[i]; p.tier != tierSampled || i == inline {
			p.reused = p.tier == tierExact && p.set != nil
			if !p.reused {
				s.sampleEntry(ctx, p, attempt, i)
			}
		}
	}
	if wg != nil {
		wg.Wait()
	}
	for i := range pl.entries {
		p := &pl.entries[i]
		if p.err != nil {
			if pl.whole {
				return p.err
			}
			return fmt.Errorf("shard %d/%d: %w", i, len(pl.entries), p.err)
		}
		st.observeEntry(p)
	}
	return nil
}

// aggregate folds the attempt's sample statistics into st and returns
// the deepest candidate rank, 0 when an entry's set came back empty.
// Every set's reads and kernel counters count, empty or not, except a
// reused exact set's, which were counted when it was enumerated. Energies
// add over entries plus the working model's offset, which the shards do
// not carry (whole-model samples already include it); ground fractions
// multiply because the entries are sampled independently.
func (pl *plan) aggregate(st *SolveStats) (rows int) {
	offset := pl.model.Offset()
	if pl.whole {
		offset = 0
	}
	best, mean, gf := offset, offset, 1.0
	rows = 1 // a plan without entries has one candidate: the empty assignment
	empty := false
	for i := range pl.entries {
		ss := pl.entries[i].set
		if !pl.entries[i].reused {
			st.Reads += ss.TotalReads()
			st.observeKernel(ss.Kernel)
		}
		if ss.Len() == 0 {
			empty = true
			continue
		}
		rows = max(rows, ss.Len())
		best += ss.Best().Energy
		mean += ss.MeanEnergy()
		gf *= ss.GroundFraction(0)
	}
	if empty {
		return 0
	}
	st.observeBest(best)
	st.MeanEnergy = mean
	st.GroundFraction = gf
	return rows
}

// acceptor decides what the search does with its candidates. It holds
// no stats: the loop counts every candidate by the verdict offer
// returns, which keeps the solve's stats off the heap.
type acceptor interface {
	// offer examines one full-space candidate of the given attempt; err
	// says why a candidate that is not verified failed. done ends the
	// attempt's scan.
	offer(x []qubo.Bit, energy float64, attempt int) (done bool, v verdict, err error)
	// more reports, after an attempt, whether another can still change
	// the outcome.
	more() bool
	// found reports whether the acceptor holds an answer.
	found() bool
}

// search runs the verify-retry loop: each attempt samples every plan
// entry through step, merges the entries' rows into candidates, lifts
// them to the full space and offers them to acc, until acc is satisfied
// or the plan's attempt budget runs out. The context is checked before
// every attempt and threaded into every sampling call.
func (s *Solver) search(ctx context.Context, name string, pl *plan, step func(attempt int) error, acc acceptor, st *SolveStats) error {
	var lastCheck error
	for attempt := 0; attempt < pl.attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("qsmt: solving %s: %w", name, err)
		}
		st.Attempts = attempt + 1
		// Sample counts sampler time only: stages the step runs itself
		// (the incremental path's component presolve and compile) keep
		// their own phases.
		phase, staged := time.Now(), st.Presolve+st.Compile
		err := step(attempt)
		st.Sample += time.Since(phase) - (st.Presolve + st.Compile - staged)
		if err != nil {
			return fmt.Errorf("qsmt: sampling %s: %w", name, err)
		}
		st.Sampler = s.samplerLabel(pl)
		rows := pl.aggregate(st)
		if rows == 0 {
			// A (custom) sampler returned an empty set for some entry;
			// no candidate can be merged this attempt.
			lastCheck = fmt.Errorf("qsmt: empty sample set for %s", name)
		} else {
			cands := newShardCandidates(pl, rows, s.opts.Seed, attempt)
			// The graded acceptor has candidates of its own: once the
			// stream runs dry it sweeps the exact entries against its
			// incumbent, and those candidates are counted like any other.
			graded, sweeps := acc.(*gradedIncumbent)
			phase = time.Now()
			for {
				x, energy, ok := cands.next()
				if !ok && sweeps {
					x, energy, ok = graded.nextSweep()
				}
				if !ok {
					break
				}
				done, v, err := acc.offer(liftBits(pl.red, x), energy, attempt)
				st.Candidates++
				switch v {
				case improved:
					st.ObjectiveImprovements++
				case undecodable:
					st.PenaltyViolations++
					lastCheck = err
				case unverified:
					st.VerifyFailures++
					lastCheck = err
				case unsat:
					st.VerifyFailures++
					st.DecodeVerify += time.Since(phase)
					return err
				}
				if done {
					break
				}
			}
			st.DecodeVerify += time.Since(phase)
		}
		if !acc.more() {
			break
		}
	}
	if acc.found() {
		return nil
	}
	if lastCheck != nil {
		return fmt.Errorf("%w (last failure: %v)", ErrNoModel, lastCheck)
	}
	return ErrNoModel
}

// samplerLabel names what sampled a plan's attempt for SolveStats: the
// configured sampler when some entry reached the sampler tier in this
// attempt, else "exact".
func (s *Solver) samplerLabel(pl *plan) string {
	for i := range pl.entries {
		if pl.entries[i].tier == tierSampled {
			if s.opts.Sampler == nil {
				return "SimulatedAnnealer"
			}
			return samplerName(s.opts.Sampler)
		}
	}
	return "exact"
}

// firstVerified accepts the first candidate whose decoded witness passes
// Check (Solve, SolveBatch, IncrementalSession). The entry point presets
// res.Vars and res.Shards.
type firstVerified struct {
	c   Constraint
	res Result
	x   []qubo.Bit // the accepted full-space assignment
	ok  bool
}

func (a *firstVerified) offer(x []qubo.Bit, energy float64, attempt int) (bool, verdict, error) {
	w, v, err := examineCandidate(a.c, x)
	if v != verified {
		return false, v, err
	}
	a.res.Witness, a.res.Energy, a.res.Attempts = w, energy, attempt+1
	a.x, a.ok = x, true
	return true, v, nil
}

func (a *firstVerified) more() bool  { return !a.ok }
func (a *firstVerified) found() bool { return a.ok }

// kDistinct collects up to k distinct verified witnesses (Enumerate).
type kDistinct struct {
	c       Constraint
	k       int
	out     []Witness
	seen    map[string]bool // witness keys
	assigns map[string]bool // candidate assignments
	fresh   int             // assignments first seen this attempt
}

func (a *kDistinct) offer(x []qubo.Bit, _ float64, _ int) (bool, verdict, error) {
	if key := bitKey(x); !a.assigns[key] {
		a.assigns[key] = true
		a.fresh++
	}
	w, v, err := examineCandidate(a.c, x)
	if v != verified {
		return false, v, err
	}
	if key := witnessKey(w); !a.seen[key] {
		a.seen[key] = true
		a.out = append(a.out, w)
	}
	return len(a.out) >= a.k, v, nil
}

// more: a deterministic sampler (fixed seed, exact solver) re-delivers
// the identical sample set every attempt, so once an attempt yields no
// unseen assignment, further attempts cannot add witnesses either.
func (a *kDistinct) more() bool {
	fresh := a.fresh
	a.fresh = 0
	return len(a.out) < a.k && fresh > 0
}

func (a *kDistinct) found() bool { return len(a.out) > 0 }

// shardCandidates generates the merged candidates of one attempt,
// lazily and in order. A whole-model plan emits its rows as sampled.
// A sharded plan emits:
//
//  1. The k-th-best merges: the k-th best sample of every shard (clamped
//     to each shard's sample count) scattered into one assignment, for k
//     below the longest shard set. Candidate 0 is the attempt's global
//     best.
//  2. Unless the plan is mergeOnly, draws from the cross product of the
//     shards' ground manifolds, up to the plan's limit in all. A draw
//     picks one of each sampled or exact shard's best-energy rows at
//     random and refills the free (zero-coefficient) variables of every
//     closed-form shard: all zeros on the first draw, all ones on the
//     second, seeded bits after. A draw that repeats an earlier
//     candidate is skipped.
//
// Every candidate's energy is its exact total energy (the shards are
// independent and the model offset is counted once). The draw state is
// built only when the k-th-best merges run out, so an attempt whose
// first candidate verifies allocates nothing but that candidate.
type shardCandidates struct {
	model   *qubo.Model
	entries []shardPlan
	whole   bool
	rows    int // k-th-best merges (or whole-model rows), emitted first
	limit   int // candidates in all

	emitted int
	buf     []qubo.Bit // the current candidate
	// Draw state, built on the first draw.
	drawing bool
	draws   int
	state   uint64
	ground  []int    // per shard: its best-energy row count
	free    [][]int  // per closed-form shard: global indices of its free variables
	seen    []uint64 // hashes of the emitted candidates
}

// newShardCandidates prepares the candidate stream of one attempt; rows
// is aggregate's deepest candidate rank (≥ 1).
func newShardCandidates(pl *plan, rows int, seed int64, attempt int) shardCandidates {
	limit := pl.limit
	rows = min(rows, limit)
	if pl.whole || pl.mergeOnly {
		limit = rows
	}
	return shardCandidates{
		model: pl.model, entries: pl.entries, whole: pl.whole, rows: rows, limit: limit,
		state: uint64(seed)*0xd1b54a32d192ed03 ^ uint64(attempt)*0x9e3779b97f4a7c15,
	}
}

// next returns the next candidate, or ok=false when the stream is done.
// Merged candidates are written to one buffer, so x is valid only until
// the next call.
func (g *shardCandidates) next() (x []qubo.Bit, energy float64, ok bool) {
	if g.emitted >= g.limit {
		return nil, 0, false
	}
	if g.whole {
		smp := g.entries[0].set.Samples[g.emitted]
		g.emitted++
		return smp.X, smp.Energy, true
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
	for i := range g.entries {
		p := &g.entries[i]
		smp := p.set.Samples[min(k, p.set.Len()-1)]
		p.shard.Scatter(x, smp.X)
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
		for i := range g.entries {
			p := &g.entries[i]
			r := 0
			if n := g.ground[i]; n > 1 {
				r = int(splitmix64(&g.state) % uint64(n))
			}
			smp := p.set.Samples[r]
			p.shard.Scatter(x, smp.X)
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
	entries := g.entries
	g.ground = make([]int, len(entries))
	g.free = make([][]int, len(entries))
	varied := false
	for i := range entries {
		p := &entries[i]
		if p.tier == tierClosedForm {
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
		samples := p.set.Samples
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
