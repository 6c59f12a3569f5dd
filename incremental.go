package qsmt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// This file is the incremental solve layer: the push/pop traffic of an
// SMT front end produces long chains of queries that differ from their
// parent by one or two assertions, so almost all of the compiled QUBO
// structure — and almost all of the sampling work — recurs verbatim
// between a check-sat and the next. An IncrementalSession exploits that
// at the component level, doing each frame's work once:
//
//   - one partition pass: qubo.Partition splits the query's model into
//     the connected components of its variable-interaction graph and
//     fingerprints each one (the canonical content fingerprint of
//     qubo.FingerprintOf) in the same pass, building no component
//     model; the fingerprints serve every attempt of the search;
//   - models only on a miss: a component whose fingerprint was solved
//     earlier in the session reuses the memoized sample set outright —
//     no model, presolve, compile or sampler reads, since merging needs
//     only its variables. A component's model is built (Shard.Induce)
//     only when it is solved: on a memo miss, where it is presolved,
//     compiled and sampled, warm-started from the parent frame's
//     accepted witness (anneal.PolishSeed) so the child query's sampler
//     starts in the basin the parent already found, or when a retry
//     refills a closed-form component's free variables;
//   - exact sets reused: an exact-tier component's set is deterministic,
//     so a retry reuses its memoized set as the planned search reuses
//     its exact entries; closed-form components are refilled and
//     sampled ones re-sampled on every retry.

// incrementalMemoCap bounds the per-session component memo. DFS
// workloads pop and re-push the same branches, so eviction is FIFO over
// first insertion: a few thousand entries comfortably cover the live
// frontier of a deep branching search while bounding memory for
// long-running sessions.
const incrementalMemoCap = 4096

// componentEntry is one memoized component: the presolve reduction and
// compiled model (kept so a verify-retry re-samples without redoing the
// reduce/compile stages) and the component-space sample set, already
// lifted back through the reduction so Scatter can place it directly.
type componentEntry struct {
	red      *qubo.Reduction   // nil when presolve eliminated nothing
	compiled *qubo.Compiled    // nil for coupler-free (closed-form) components
	set      *anneal.SampleSet // component-local assignments, energy-sorted
}

// IncrementalSession solves a sequence of related constraints, reusing
// solved QUBO components across queries and warm-starting touched
// components from the parent frame's witness. It is the engine behind
// every check-sat of the smtlib interpreter; it can also be driven
// directly for DFS-style symbolic execution loops.
//
// Keys name lineages, not constraints: two Solve calls with the same key
// are treated as parent and child frames of one search path, so the
// child seeds its sampler from the parent's accepted witness whenever
// the variable layout still matches. Distinct variables (or distinct
// search paths) should use distinct keys. The component memo is shared
// across all keys — component identity is content-addressed, so a
// component proven on one path is reusable on every other.
//
// A session is safe for concurrent use when the Solver's sampler is;
// memo and parent-witness state are guarded, and sampling runs outside
// the locks.
type IncrementalSession struct {
	s *Solver

	mu      sync.Mutex
	memo    map[qubo.Fingerprint]*componentEntry
	order   []qubo.Fingerprint // FIFO eviction order (first insertion)
	parents map[string][]qubo.Bit
}

// NewIncrementalSession returns an incremental session backed by s. The
// session borrows the solver's options (sampler, exact-tier size,
// compile cache, metrics); it does not copy them, so later option
// visibility follows the solver value the caller keeps.
func (s *Solver) NewIncrementalSession() *IncrementalSession {
	return &IncrementalSession{
		s:       s,
		memo:    make(map[qubo.Fingerprint]*componentEntry),
		parents: make(map[string][]qubo.Bit),
	}
}

// Reset drops all memoized components and parent witnesses, returning
// the session to its initial state without discarding the solver.
func (is *IncrementalSession) Reset() {
	is.mu.Lock()
	defer is.mu.Unlock()
	is.memo = make(map[qubo.Fingerprint]*componentEntry)
	is.order = is.order[:0]
	is.parents = make(map[string][]qubo.Bit)
}

// Solve runs the SMT loop on one constraint of the keyed lineage,
// reusing session state as described on IncrementalSession. Results,
// errors and their classification (ErrUnsatisfiable, ErrNoModel) are
// identical to Solver.SolveContext on the same constraint; only the
// work performed differs.
func (is *IncrementalSession) Solve(ctx context.Context, key string, c Constraint) (*Result, error) {
	var st SolveStats
	res, err := is.solve(ctx, key, c, &st)
	is.s.opts.Metrics.record(&st, err)
	is.s.syncCacheMetrics()
	return res, err
}

func (is *IncrementalSession) solve(ctx context.Context, key string, c Constraint, st *SolveStats) (*Result, error) {
	s := is.s
	start := time.Now()
	st.Incremental = true
	model, err := c.BuildModel()
	if err != nil {
		return nil, err
	}
	shards, fps := qubo.Partition(model)
	st.Shards = len(shards)
	attempts, limit, _ := s.opts.searchLimits()
	pl := plan{model: model, entries: make([]shardPlan, len(shards)), mergeOnly: true,
		attempts: attempts, limit: limit}
	for i := range shards {
		pl.entries[i].shard = &shards[i]
	}
	if len(shards) == 0 {
		// A variable-free model (e.g. an empty-string equality) has
		// exactly one assignment; retrying cannot change it.
		pl.attempts = 1
	}
	parent := is.parentFor(key, model.N())
	acc := &firstVerified{c: c, res: Result{Vars: model.N(), Shards: len(shards)}}
	step := func(attempt int) error { return is.sampleComponents(ctx, &pl, fps, parent, attempt, st) }
	if err := s.search(ctx, c.Name(), &pl, step, acc, st); err != nil {
		return nil, err
	}
	is.setParent(key, acc.x)
	return finish(&acc.res, start, st), nil
}

// sampleComponents is the incremental sampling step; fps[i] is entry
// i's fingerprint. It reads the memo in one locked pass, and a
// component that repeats one this attempt already solved is served
// from it, so each fingerprint is solved at most once per attempt.
// Memo hits are free on the first attempt: no sampler runs, so their
// reads are not counted (reused). A retry means the combination failed
// verification, so it re-solves every component through solveComponent
// except the exact-tier ones, whose memoized set is what enumeration
// would return again; misses are always solved.
func (is *IncrementalSession) sampleComponents(ctx context.Context, pl *plan, fps []qubo.Fingerprint, parent []qubo.Bit, attempt int, st *SolveStats) error {
	var buf [32]*componentEntry
	prevs := is.lookup(fps, buf[:0])
	for i := range pl.entries {
		p := &pl.entries[i]
		prev := prevs[i]
		if prev == nil {
			prev = solvedEarlier(fps, prevs, i)
		}
		if prev != nil && prev.set.Len() > 0 {
			if attempt == 0 {
				st.IncrementalHits++
				p.set, p.reused = prev.set, true
				continue
			}
			if prev.compiled != nil && is.s.tierOf(prev.compiled) == tierExact {
				p.tier, p.set, p.reused = tierExact, prev.set, true
				continue
			}
		}
		p.reused = false
		e, err := is.solveComponent(ctx, p, fps[i], prev, parent, pl.model, attempt, i, st)
		if err != nil {
			return fmt.Errorf("component %d/%d: %w", i, len(pl.entries), err)
		}
		prevs[i] = e
	}
	return nil
}

// solvedEarlier returns the entry of the first component before i with
// fingerprint fps[i], or nil when there is none.
func solvedEarlier(fps []qubo.Fingerprint, prevs []*componentEntry, i int) *componentEntry {
	for j := range i {
		if fps[j] == fps[i] {
			return prevs[j]
		}
	}
	return nil
}

// solveComponent solves one component of model through the shared tier
// switch and memoizes the result. prev, when non-nil, is the component's
// previous memo entry; its presolve reduction and compiled model are
// reused so a re-sample pays only for sampler reads, and the
// component's model is built only when presolve or the closed-form
// tier reads it. The entry's set ends up holding component-local
// full-space assignments (already lifted through the reduction); the
// memoized entry is returned.
func (is *IncrementalSession) solveComponent(ctx context.Context, p *shardPlan, fp qubo.Fingerprint, prev *componentEntry, parent []qubo.Bit, model *qubo.Model, attempt, ordinal int, st *SolveStats) (*componentEntry, error) {
	s := is.s
	var red *qubo.Reduction
	p.tier, p.seeds = tierClosedForm, nil
	if fp.Quad == 0 {
		p.shard.Induce(model)
	} else {
		if prev != nil && prev.compiled != nil {
			red, p.compiled = prev.red, prev.compiled
			st.IncrementalPresolveReuses++
		} else {
			work, r := presolve(p.shard.Induce(model), nil, st)
			red = r
			phase := time.Now()
			p.compiled = s.compileModel(work, st)
			st.Compile += time.Since(phase)
		}
		p.tier = s.tierOf(p.compiled)
		if p.tier != tierExact {
			p.seeds, p.warm = is.componentSeeds(p.compiled, red, p.shard, parent, model.N(), st)
		}
	}
	if attempt == 0 && p.tier <= tierExact {
		st.ExactShards++
	}
	s.sampleEntry(ctx, p, attempt, ordinal)
	if p.err != nil {
		return nil, p.err
	}
	st.observeEntry(p)

	// Lift the samples back to the component's full space before
	// memoizing, so merge-time Scatter and later memo hits need no
	// reduction bookkeeping. The presolve identity keeps energies exact:
	// E_component(Lift(x)) = E_reduced(x), offsets included.
	if red != nil {
		lifted := make([]anneal.Sample, p.set.Len())
		for k, smp := range p.set.Samples {
			lifted[k] = smp
			lifted[k].X = red.Lift(smp.X)
		}
		p.set = &anneal.SampleSet{Samples: lifted}
	}
	e := &componentEntry{red: red, compiled: p.compiled, set: p.set}
	is.store(fp, e)
	return e, nil
}

// componentSeeds assembles the initial states of a sampled component
// (see entryStates). A full-model assignment (fullN variables) maps
// into the component's space by restriction to its variables and
// projection through its presolve reduction. With warm starts, the
// parent frame's witness, so mapped and greedily polished
// (anneal.PolishSeed), leads the solver's standard greedy seeds.
func (is *IncrementalSession) componentSeeds(compiled *qubo.Compiled, red *qubo.Reduction, sh *qubo.Shard, parent []qubo.Bit, fullN int, st *SolveStats) ([][]qubo.Bit, bool) {
	toComponent := func(x []qubo.Bit) []qubo.Bit { return red.Project(restrict(x, sh.Vars)) }
	seeds, warm := is.s.entryStates(compiled, fullN, toComponent)
	if !warm || parent == nil {
		return seeds, warm
	}
	if seed := anneal.PolishSeed(compiled, toComponent(parent), is.s.opts.Seed); seed != nil {
		st.IncrementalParentSeeds++
		seeds = append([][]qubo.Bit{seed}, seeds...)
	}
	return seeds, warm
}

// lookup appends the memo entry of every fingerprint in fps to dst
// (nil for a miss) under one lock, and returns the extended slice.
func (is *IncrementalSession) lookup(fps []qubo.Fingerprint, dst []*componentEntry) []*componentEntry {
	is.mu.Lock()
	defer is.mu.Unlock()
	for _, fp := range fps {
		dst = append(dst, is.memo[fp])
	}
	return dst
}

// store memoizes a component entry, evicting the oldest first-inserted
// entries beyond the cap. Overwriting an existing fingerprint (a retry
// replacing its sample set) keeps the original insertion position.
func (is *IncrementalSession) store(fp qubo.Fingerprint, e *componentEntry) {
	is.mu.Lock()
	defer is.mu.Unlock()
	if _, ok := is.memo[fp]; ok {
		is.memo[fp] = e
		return
	}
	is.memo[fp] = e
	is.order = append(is.order, fp)
	for len(is.order) > incrementalMemoCap {
		delete(is.memo, is.order[0])
		is.order = is.order[1:]
	}
}

// parentFor returns the lineage's last accepted witness when its width
// still matches the current model, nil otherwise (an assertion delta
// that changes the variable layout simply forgoes parent seeding).
// The returned slice is shared and must be treated as read-only.
func (is *IncrementalSession) parentFor(key string, n int) []qubo.Bit {
	is.mu.Lock()
	defer is.mu.Unlock()
	p := is.parents[key]
	if len(p) != n {
		return nil
	}
	return p
}

// setParent records the lineage's accepted witness for child seeding.
func (is *IncrementalSession) setParent(key string, x []qubo.Bit) {
	cp := make([]qubo.Bit, len(x))
	copy(cp, x)
	is.mu.Lock()
	defer is.mu.Unlock()
	is.parents[key] = cp
}
