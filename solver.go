package qsmt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// Sampler minimizes a compiled QUBO and returns an energy-sorted sample
// set. The samplers in this module (simulated annealing, parallel
// tempering, exact enumeration, greedy descent, uniform random) all
// satisfy it.
type Sampler interface {
	Sample(*qubo.Compiled) (*anneal.SampleSet, error)
}

// SamplerContext is the cancellation-aware sampler contract. All
// samplers in this module implement it in addition to Sampler; custom
// samplers may implement only Sampler — the solver adapts them (the
// context is then checked around, not inside, each sampling call).
type SamplerContext interface {
	SampleContext(ctx context.Context, c *qubo.Compiled) (*anneal.SampleSet, error)
}

// Options configures a Solver. The zero value selects the defaults noted
// on each field.
type Options struct {
	// Sampler minimizes the QUBOs. Default: a SimulatedAnnealer with
	// 64 reads and 1000 sweeps, warm-started — the neal-equivalent
	// configuration the paper evaluates on. With the default, Solve and
	// Optimize run it only on the components that the closed-form and
	// exact tiers cannot take (see SolveContext); SolveBatch runs that
	// tier plan with any sampler. Setting a Sampler makes Solve and
	// Optimize anneal the whole presolved model. A kernel sampler's own InitialStates are given as
	// full-model assignments; the solver maps them into each sampled
	// model's space on a copy of the sampler.
	Sampler Sampler
	// MaxAttempts bounds the verify-retry loop: after a failed
	// verification the solver re-anneals with a fresh seed. Default 4.
	MaxAttempts int
	// Seed is the root seed for default samplers and retry derivation.
	// Default 1.
	Seed int64
	// CandidatesPerAttempt bounds how many distinct low-energy samples
	// are decoded and checked per attempt before re-annealing.
	// Default 16.
	CandidatesPerAttempt int
	// Metrics, when non-nil, receives per-solve counters, phase timings
	// and sample-quality observations (see NewSolverMetrics). The same
	// numbers are always available per call via Result.Stats; Metrics
	// adds the registry-backed aggregate view.
	Metrics *SolverMetrics
	// BatchWorkers bounds concurrent sampling operations (shard or
	// whole-model) across a SolveBatch/EnumerateBatch call. Default
	// GOMAXPROCS; remote samplers (remote.Client, remote.Pool) tolerate
	// — and benefit from — values above the local core count, since the
	// fan-out then saturates the backend fleet instead of local CPUs.
	BatchWorkers int
	// CompileCache, when non-nil, fronts every Model.Compile with an LRU
	// keyed by the model's canonical fingerprint, so repeated
	// constraints (pipeline stages, recurring batch members, shards of
	// recurring conjunctions) skip compilation. The shard tier plan
	// (Solve, SolveBatch, Optimize) also keeps each exact-tier shard's
	// enumerated set in its model's entry, so a recurring exact shard
	// is enumerated once per entry rather than once per solve; a set is
	// evicted with its entry. Solvers sharing a cache get identical
	// results to cache-free ones. See qubo.NewCache.
	CompileCache *qubo.Cache
	// ExactShardVars is the shard size (in binary variables) at or below
	// which a sharded solve enumerates the shard exhaustively instead of
	// sampling it — exact, deterministic, and cheaper than 64×1000
	// annealer reads at these sizes. Default 20; negative disables exact
	// shard solving. Values above anneal.MaxExactVars are clamped.
	ExactShardVars int
}

// warmSeedCount is how many warm-start states the solver derives per
// compiled model; greedy descents are a few O(N+M) passes each, far
// below one annealing read.
const warmSeedCount = 4

// Solver runs the full SMT loop over QUBO-encoded string constraints:
// encode, sample, decode, check, retry. A Solver is safe for concurrent
// use when its Sampler is.
type Solver struct {
	opts Options
	// gate, when non-nil, bounds concurrent sampling operations; the
	// batch layer installs it on a per-batch solver copy so a batch of
	// hundreds of constraints keeps at most BatchWorkers samplers in
	// flight. A gated solver runs the shard tier plan with any sampler.
	gate chan struct{}
}

// NewSolver returns a solver with the given options; nil selects all
// defaults.
func NewSolver(opts *Options) *Solver {
	s := &Solver{}
	if opts != nil {
		s.opts = *opts
	}
	if s.opts.Seed == 0 {
		s.opts.Seed = 1
	}
	s.opts.MaxAttempts, s.opts.CandidatesPerAttempt, s.opts.ExactShardVars = s.opts.searchLimits()
	return s
}

// searchLimits resolves the attempt budget, the candidates kept per
// attempt and the exact-tier bound, defaulting zero fields where they
// are read, so the zero Solver{} searches with NewSolver(nil)'s budgets
// instead of zero attempts.
func (o *Options) searchLimits() (attempts, candidates, exactVars int) {
	attempts, candidates, exactVars = o.MaxAttempts, o.CandidatesPerAttempt, o.ExactShardVars
	if attempts <= 0 {
		attempts = 4
	}
	if candidates <= 0 {
		candidates = 16
	}
	if exactVars == 0 {
		exactVars = DefaultExactShardVars
	}
	return attempts, candidates, min(exactVars, anneal.MaxExactVars)
}

// DefaultExactShardVars is the default Options.ExactShardVars, the
// measured crossover of single-worker enumeration and the default
// 64×1000 annealer on random QUBOs (BenchmarkTierCrossover,
// EXPERIMENTS.md): at 20 variables the split-table enumeration costs
// about half an anneal, at 22 already more than a whole one.
const DefaultExactShardVars = 20

// compileModel compiles through the configured cache (straight through
// when none is set) and tracks cache hits in the solve stats.
func (s *Solver) compileModel(m *qubo.Model, st *SolveStats) *qubo.Compiled {
	compiled, _ := s.compileEntry(m, st)
	return compiled
}

// compileEntry is compileModel returning the model's cache entry too,
// nil when no cache is set.
func (s *Solver) compileEntry(m *qubo.Model, st *SolveStats) (*qubo.Compiled, *qubo.CacheEntry) {
	if s.opts.CompileCache == nil {
		return m.Compile(), nil
	}
	e, hit := s.opts.CompileCache.CompileEntry(m)
	if hit {
		st.CacheHits++
	}
	return e.Compiled(), e
}

// syncCacheMetrics mirrors the compile-cache counters into the registry
// after a solve that could have touched the cache.
func (s *Solver) syncCacheMetrics() {
	if s.opts.CompileCache != nil && s.opts.Metrics != nil {
		s.opts.Metrics.syncCache(s.opts.CompileCache.Stats())
	}
}

// Result reports a successful solve.
type Result struct {
	Witness  Witness       // the checked model, in string-theory terms
	Energy   float64       // QUBO energy of the accepted sample
	Attempts int           // sampler invocations used (1 = first try)
	Vars     int           // QUBO size (binary variables)
	Shards   int           // independent shards solved (1 = whole model)
	Elapsed  time.Duration // wall-clock time across all attempts
	Stats    SolveStats    // phase timings and sample-quality detail

	// Optimize-mode fields (zero on plain Solve results). Objective is
	// the weighted theory objective Σ wᵢ·valueᵢ of the returned witness;
	// ObjectiveValues holds the per-soft-constraint theory values in
	// submission order (an Objective's graded value, or 0/1 violation for
	// a plain soft constraint). ObjectiveBound is the proven lower bound;
	// ObjectiveOptimal reports that the incumbent reached it, i.e. the
	// result is proved optimal rather than best-found-feasible.
	Objective        float64
	ObjectiveValues  []float64
	ObjectiveBound   float64
	ObjectiveOptimal bool
}

// ErrNoModel reports that the solver exhausted its verify-retry budget
// without finding a checked model. Because a QUBO sampler always returns
// *some* bitstring, this is the solver's (incomplete) analogue of unsat:
// either the constraint truly has no model, or the annealer failed to
// reach one.
var ErrNoModel = errors.New("qsmt: no verified model found")

// Solve runs the SMT loop on one constraint.
func (s *Solver) Solve(c Constraint) (*Result, error) {
	return s.SolveContext(context.Background(), c)
}

// SolveContext runs the SMT loop on one constraint under ctx. The
// model is presolved first. With the default sampler it is then solved
// by the shard tier plan — coupler-free components closed-form,
// components of ≤ ExactShardVars variables by exact enumeration, larger
// ones by the sampler — and with a custom Sampler whole. The context is
// threaded into every sampling call: context-aware samplers (all module
// samplers and the remote client) abort mid-run, so a deadline bounds
// the whole solve including retries.
func (s *Solver) SolveContext(ctx context.Context, c Constraint) (*Result, error) {
	var st SolveStats
	res, err := s.solveContext(ctx, c, &st)
	s.opts.Metrics.record(&st, err)
	s.syncCacheMetrics()
	return res, err
}

// verdict is what became of one examined candidate.
type verdict uint8

const (
	verified    verdict = iota // the decoded witness passed Check
	improved                   // verified and the new incumbent (Optimize)
	undecodable                // Decode rejected the bitstring: a penalty violation
	unverified                 // the decoded witness failed Check
	unsat                      // Check proved the constraint unsatisfiable
)

// examineCandidate decodes and checks one assignment; err says why a
// candidate that is not verified failed. An unsat verdict means
// re-annealing is pointless.
func examineCandidate(c Constraint, x []qubo.Bit) (Witness, verdict, error) {
	w, err := c.Decode(x)
	if err != nil {
		return Witness{}, undecodable, err
	}
	if err := c.Check(w); err != nil {
		if errors.Is(err, ErrUnsatisfiable) {
			return Witness{}, unsat, err
		}
		return Witness{}, unverified, err
	}
	return w, verified, nil
}

// presolve runs the QUBO presolve stage on model, recording stage
// stats. protected, when non-nil, marks the variables fixing and
// folding must leave alone (the optimize path protects every variable
// carrying objective mass; see qubo.PresolveProtected). It returns the
// model the sampler should see and the reduction to lift samples back
// through (nil when presolve eliminated nothing, so downstream behavior
// — compile-cache keys included — is that of the unreduced model).
func presolve(model *qubo.Model, protected []bool, st *SolveStats) (*qubo.Model, *qubo.Reduction) {
	phase := time.Now()
	r := qubo.PresolveProtected(model, protected)
	st.Presolve += time.Since(phase)
	st.PresolveRounds += r.Stats.Rounds
	st.PresolveEliminated += r.Eliminated()
	st.presolveVars += r.FullN
	if st.presolveVars > 0 {
		st.PresolveRatio = float64(st.PresolveEliminated) / float64(st.presolveVars)
	}
	if !r.Reduced() {
		return model, nil
	}
	return r.Model, r
}

// liftBits maps a (possibly reduced-space) assignment back to the full
// variable space; a nil reduction means the assignment already is full.
// Off-width assignments (a custom sampler ignoring the compiled model's
// size) are passed through unlifted so Decode reports the mismatch
// instead of Lift panicking.
func liftBits(red *qubo.Reduction, x []qubo.Bit) []qubo.Bit {
	if red == nil || len(x) != red.Model.N() {
		return x
	}
	return red.Lift(x)
}

// restrict returns the assignment's values at vars, in order.
func restrict(x []qubo.Bit, vars []int) []qubo.Bit {
	local := make([]qubo.Bit, len(vars))
	for k, g := range vars {
		local[k] = x[g]
	}
	return local
}

// warmSeeds derives warm-start states for a compiled model: greedy
// descents from the all-zeros corner, the baseline-propagation state and
// a few random starts (anneal.GreedySeeds).
func (s *Solver) warmSeeds(compiled *qubo.Compiled) [][]qubo.Bit {
	if compiled.N == 0 {
		return nil
	}
	return anneal.GreedySeeds(compiled, warmSeedCount, s.opts.Seed)
}

// ownStates returns the InitialStates of a kernel sampler (simulated
// annealing, parallel tempering, tabu; nil, the default annealer, is
// one without states); kernel reports whether sampler is one. Remote
// clients, custom implementations and the exact solver take no states
// from the solver.
func ownStates(sampler Sampler) (states [][]qubo.Bit, kernel bool) {
	switch sa := sampler.(type) {
	case nil:
		return nil, true
	case *anneal.SimulatedAnnealer:
		return sa.InitialStates, true
	case *anneal.ParallelTempering:
		return sa.InitialStates, true
	case *anneal.TabuSampler:
		return sa.InitialStates, true
	}
	return nil, false
}

// withStates installs initial states on a copy of a kernel sampler; an
// empty state list or any other sampler returns sampler unchanged.
func withStates(sampler Sampler, states [][]qubo.Bit) Sampler {
	if len(states) == 0 {
		return sampler
	}
	switch sa := sampler.(type) {
	case *anneal.SimulatedAnnealer:
		cp := *sa
		cp.InitialStates = states
		return &cp
	case *anneal.ParallelTempering:
		cp := *sa
		cp.InitialStates = states
		return &cp
	case *anneal.TabuSampler:
		cp := *sa
		cp.InitialStates = states
		return &cp
	}
	return sampler
}

// entryStates derives the initial states of a sampled entry. A kernel
// sampler without states of its own gets the solver's warm-start seeds
// (warm). One with its own InitialStates gets those: every state as
// wide as the full model (fullN variables) mapped into the entry's
// space by toEntry, states of any other width unchanged, so the sampler
// still reports the mismatch. Other samplers get none.
func (s *Solver) entryStates(compiled *qubo.Compiled, fullN int, toEntry func([]qubo.Bit) []qubo.Bit) (states [][]qubo.Bit, warm bool) {
	own, kernel := ownStates(s.opts.Sampler)
	if !kernel {
		return nil, false
	}
	if own == nil {
		states = s.warmSeeds(compiled)
		return states, len(states) > 0
	}
	states = make([][]qubo.Bit, len(own))
	for k, x := range own {
		states[k] = x
		if len(x) == fullN {
			states[k] = toEntry(x)
		}
	}
	return states, false
}

func (s *Solver) solveContext(ctx context.Context, c Constraint, st *SolveStats) (*Result, error) {
	start := time.Now()
	model, err := c.BuildModel()
	if err != nil {
		return nil, err
	}
	// Presolve before sharding: fixing and folding delete couplers, so a
	// connected interaction graph can fall apart into components that the
	// shard planner then solves closed-form or exactly.
	work, red := presolve(model, nil, st)
	pl := s.newPlan(work, red, model.N(), st)
	st.Compile = time.Since(start) - st.Presolve
	acc := &firstVerified{c: c, res: Result{Vars: model.N(), Shards: max(len(pl.entries), 1)}}
	step := func(attempt int) error { return s.sampleShards(ctx, &pl, attempt, st) }
	if err := s.search(ctx, c.Name(), &pl, step, acc, st); err != nil {
		return nil, err
	}
	return finish(&acc.res, start, st), nil
}

// finish stamps an accepted result with its wall-clock time and stats.
func finish(res *Result, start time.Time, st *SolveStats) *Result {
	res.Elapsed = time.Since(start)
	res.Stats = *st
	return res
}

// SolveString solves a string-witness constraint and returns the string.
func (s *Solver) SolveString(c Constraint) (string, error) {
	res, err := s.Solve(c)
	if err != nil {
		return "", err
	}
	if res.Witness.Kind != WitnessString {
		return "", fmt.Errorf("qsmt: %s produced a non-string witness", c.Name())
	}
	return res.Witness.Str, nil
}

// SolveIndex solves an index-witness constraint (Includes) and returns
// the index.
func (s *Solver) SolveIndex(c Constraint) (int, error) {
	res, err := s.Solve(c)
	if err != nil {
		return -1, err
	}
	if res.Witness.Kind != WitnessIndex {
		return -1, fmt.Errorf("qsmt: %s produced a non-index witness", c.Name())
	}
	return res.Witness.Index, nil
}

// Enumerate collects up to k distinct verified witnesses for a
// constraint by decoding and checking every sample of successive
// annealing attempts (fresh seed per attempt). It exploits the
// degenerate ground manifolds of generative constraints — palindromes,
// regexes, pinned substrings — where many distinct strings satisfy the
// same QUBO; it is the API behind corpus generation for testing
// workloads. Fewer than k witnesses may be returned when the manifold
// (or the attempt budget) is smaller; at least one witness or an error
// is guaranteed.
func (s *Solver) Enumerate(c Constraint, k int) ([]Witness, error) {
	return s.EnumerateContext(context.Background(), c, k)
}

// EnumerateContext is Enumerate under a context; see SolveContext for
// the cancellation contract. Each enumeration records into
// Options.Metrics as one solve (success when it yields any witness).
func (s *Solver) EnumerateContext(ctx context.Context, c Constraint, k int) ([]Witness, error) {
	var st SolveStats
	out, err := s.enumerateContext(ctx, c, k, &st)
	s.opts.Metrics.record(&st, err)
	s.syncCacheMetrics()
	return out, err
}

// witnessKey renders a witness as a dedup map key, tagged by kind: the
// string witness "#3" and the index witness 3 are distinct witnesses
// and must not collide.
func witnessKey(w Witness) string {
	if w.Kind == WitnessIndex {
		return fmt.Sprintf("i:%d", w.Index)
	}
	return "s:" + w.Str
}

func (s *Solver) enumerateContext(ctx context.Context, c Constraint, k int, st *SolveStats) ([]Witness, error) {
	start := time.Now()
	model, err := c.BuildModel()
	if err != nil {
		return nil, err
	}
	// Enumeration needs the full degenerate ground manifold: no presolve,
	// no shards, no warm starts, and every sampled row is a candidate.
	pl := s.wholePlan(model, nil, s.compileModel(model, st))
	st.Compile = time.Since(start)
	// Scale attempts with the request: every attempt contributes an
	// independent read set.
	pl.attempts = max(pl.attempts, k)
	pl.limit = math.MaxInt
	acc := &kDistinct{c: c, k: max(k, 1), seen: map[string]bool{}, assigns: map[string]bool{}}
	step := func(attempt int) error { return s.sampleShards(ctx, &pl, attempt, st) }
	if err := s.search(ctx, c.Name(), &pl, step, acc, st); err != nil {
		return nil, err
	}
	return acc.out, nil
}

// sample runs one sampling call under ctx, using the sampler's native
// context support when present and the check-around adapter otherwise.
// When a batch gate is installed, the call first acquires a worker slot
// so a whole batch keeps at most BatchWorkers samplers in flight.
func (s *Solver) sample(ctx context.Context, sampler Sampler, compiled *qubo.Compiled) (*anneal.SampleSet, error) {
	if s.gate != nil {
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if cs, ok := sampler.(SamplerContext); ok {
		return cs.SampleContext(ctx, compiled)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ss, err := sampler.Sample(compiled)
	if err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return ss, nil
}

// bitKey renders an assignment as a dedup map key.
func bitKey(x []qubo.Bit) string {
	b := make([]byte, len(x))
	for i, v := range x {
		b[i] = '0' + byte(v&1)
	}
	return string(b)
}

// samplerFor returns the sampler for a given retry attempt. User-supplied
// samplers are reused as-is (their own state decides variation across
// calls); the default annealer derives a fresh seed per attempt so
// retries explore different basins.
func (s *Solver) samplerFor(attempt int) Sampler {
	if s.opts.Sampler != nil {
		return s.opts.Sampler
	}
	return &anneal.SimulatedAnnealer{
		Reads:  64,
		Sweeps: 1000,
		Seed:   s.opts.Seed + int64(attempt)*1_000_003,
	}
}
