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

// Toggle is a tri-state boolean option: the zero value selects the
// field's documented default, On forces the feature on, Off forces it
// off. It exists so features that are on by default (presolve, warm
// starts) can still be switched off through a zero-value-friendly
// Options literal.
type Toggle uint8

const (
	// DefaultToggle selects the field's documented default.
	DefaultToggle Toggle = iota
	// On forces the option on.
	On
	// Off forces the option off.
	Off
)

// enabled resolves the toggle against the field's default.
func (t Toggle) enabled(def bool) bool {
	switch t {
	case On:
		return true
	case Off:
		return false
	default:
		return def
	}
}

// Options configures a Solver. The zero value selects the defaults noted
// on each field.
type Options struct {
	// Sampler minimizes the QUBOs. Default: a SimulatedAnnealer with
	// 64 reads and 1000 sweeps, warm-started — the neal-equivalent
	// configuration the paper evaluates on. With the default, Solve and
	// SolveBatch run it only on the components that the closed-form and
	// exact tiers cannot take (see SolveContext). Setting a Sampler makes
	// Solve anneal the whole model unless Shard is set.
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
	// Shard opts custom-sampler solves and Optimize into the shard tier
	// plan: the presolved model is decomposed into the connected
	// components of its QUBO variable-interaction graph and the
	// components are solved as independent shards, merging the shard
	// assignments back into one witness. One static rule places every
	// shard: coupler-free shards are solved closed-form, shards of
	// ≤ ExactShardVars variables by exact enumeration, the rest by the
	// sampler. A connected model is a one-shard plan under the same
	// rule. Solve with the default sampler and every SolveBatch run the
	// tier plan; Optimize shards only when Shard is set.
	Shard bool
	// BatchWorkers bounds concurrent sampling operations (shard or
	// whole-model) across a SolveBatch/EnumerateBatch call. Default
	// GOMAXPROCS; remote samplers (remote.Client, remote.Pool) tolerate
	// — and benefit from — values above the local core count, since the
	// fan-out then saturates the backend fleet instead of local CPUs.
	BatchWorkers int
	// CompileCache, when non-nil, fronts every Model.Compile with an LRU
	// keyed by the model's canonical fingerprint, so repeated
	// constraints (pipeline stages, recurring batch members, shards of
	// recurring conjunctions) skip compilation. See qubo.NewCache.
	CompileCache *qubo.Cache
	// ExactShardVars is the shard size (in binary variables) at or below
	// which a sharded solve enumerates the shard exhaustively instead of
	// sampling it — exact, deterministic, and cheaper than 64×1000
	// annealer reads at these sizes. Default 16; negative disables exact
	// shard solving. Values above anneal.MaxExactVars are clamped.
	ExactShardVars int
	// Presolve controls the QUBO presolve stage (qubo.Presolve) that runs
	// between model construction and compilation: persistency fixing,
	// pendant elimination and duplicate/complement merging shrink the
	// model the sampler sees, and reduced-model samples are lifted back to
	// full-model assignments exactly before decoding. On by default; Off
	// restores today's behavior bit for bit. Presolve never applies to
	// Enumerate, which needs the full degenerate ground manifold.
	Presolve Toggle
	// WarmStart controls warm-start seeding: when on (the default), each
	// sampling operation on a kernel sampler (simulated annealing,
	// parallel tempering, tabu) offers greedy-descent and
	// baseline-propagation states (anneal.GreedySeeds) as initial states,
	// so a fraction of reads polishes structured starts instead of
	// cooling from random ones. Samplers without warm-start support
	// (remote clients, custom samplers) are used unchanged. Off restores
	// today's behavior bit for bit. Never applies to Enumerate.
	WarmStart Toggle
	// HardWeight overrides the automatic weight-gap scaling of
	// Solver.Optimize: the multiplier M applied to every hard-constraint
	// penalty before soft objective terms are layered on. 0 (the
	// default) derives M from the soft bundle's total energy span and
	// the hard model's minimum violation granularity so that no
	// combination of soft rewards can buy a hard violation. Set it only
	// when the automatic bound is provably looser than your encoding
	// needs (it grows coefficient ratios, which costs annealer
	// resolution).
	HardWeight float64
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
	// flight.
	gate chan struct{}
}

// NewSolver returns a solver with the given options; nil selects all
// defaults.
func NewSolver(opts *Options) *Solver {
	s := &Solver{}
	if opts != nil {
		s.opts = *opts
	}
	if s.opts.MaxAttempts <= 0 {
		s.opts.MaxAttempts = 4
	}
	if s.opts.Seed == 0 {
		s.opts.Seed = 1
	}
	if s.opts.CandidatesPerAttempt <= 0 {
		s.opts.CandidatesPerAttempt = 16
	}
	if s.opts.ExactShardVars == 0 {
		s.opts.ExactShardVars = DefaultExactShardVars
	}
	if s.opts.ExactShardVars > anneal.MaxExactVars {
		s.opts.ExactShardVars = anneal.MaxExactVars
	}
	return s
}

// DefaultExactShardVars is the default Options.ExactShardVars, the
// measured crossover of single-worker enumeration and the default
// 64×1000 annealer on random QUBOs (BenchmarkTierCrossover,
// EXPERIMENTS.md): at 16 variables enumeration costs about half an
// anneal, at 18 already more than a whole one.
const DefaultExactShardVars = 16

// compileModel compiles through the configured cache (straight through
// when none is set) and tracks cache hits in the solve stats.
func (s *Solver) compileModel(m *qubo.Model, st *SolveStats) *qubo.Compiled {
	if s.opts.CompileCache == nil {
		return m.Compile()
	}
	compiled, hit := s.opts.CompileCache.Compile(m)
	if hit {
		st.CacheHits++
	}
	return compiled
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
// model is presolved first; with the default sampler (or Options.Shard)
// it is then solved by the shard tier plan — coupler-free components
// closed-form, components of ≤ ExactShardVars variables by exact
// enumeration, larger ones by the configured sampler — and otherwise
// whole by the configured sampler. The context is threaded
// into every sampling call: context-aware samplers (all module samplers
// and the remote client) abort mid-run, so a deadline bounds the whole
// solve including retries.
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

// presolve runs the QUBO presolve stage on model when enabled, recording
// stage stats. It returns the model the sampler should see and the
// reduction to lift samples back through (nil when presolve is off or
// eliminated nothing, so downstream behavior — compile-cache keys
// included — is bit-identical to a presolve-free solve).
func (s *Solver) presolve(model *qubo.Model, st *SolveStats) (*qubo.Model, *qubo.Reduction) {
	return s.presolveProtected(model, nil, st)
}

// presolveProtected is presolve with a protection mask: the optimize
// path passes the set of variables carrying objective mass so fixing
// and folding only fire on variables the objective does not grade (see
// qubo.PresolveProtected).
func (s *Solver) presolveProtected(model *qubo.Model, protected []bool, st *SolveStats) (*qubo.Model, *qubo.Reduction) {
	if !s.opts.Presolve.enabled(true) {
		return model, nil
	}
	phase := time.Now()
	r := qubo.PresolveProtected(model, protected)
	st.Presolve += time.Since(phase)
	st.PresolveRounds += r.Stats.Rounds
	st.PresolveEliminated += r.Eliminated()
	st.PresolveRatio = r.Ratio()
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

// warmSeeds derives warm-start states for a compiled model when warm
// starts are enabled: greedy descents from the all-zeros corner, the
// baseline-propagation state and a few random starts (anneal.GreedySeeds).
func (s *Solver) warmSeeds(compiled *qubo.Compiled) [][]qubo.Bit {
	if !s.opts.WarmStart.enabled(true) || compiled.N == 0 {
		return nil
	}
	return anneal.GreedySeeds(compiled, warmSeedCount, s.opts.Seed)
}

// supportsWarmStart reports whether the solver can install warm-start
// states on sampler: it must be one of the kernel samplers (simulated
// annealing, parallel tempering, tabu) without user-set initial states.
// Remote clients, custom implementations, and the exact and reverse
// annealers are used unchanged.
func supportsWarmStart(sampler Sampler) bool {
	switch sa := sampler.(type) {
	case *anneal.SimulatedAnnealer:
		return sa.InitialStates == nil
	case *anneal.ParallelTempering:
		return sa.InitialStates == nil
	case *anneal.TabuSampler:
		return sa.InitialStates == nil
	}
	return false
}

// warmSampler installs warm-start states on a copy of sampler when
// supportsWarmStart allows it; otherwise the sampler is returned
// unchanged.
func warmSampler(sampler Sampler, seeds [][]qubo.Bit) Sampler {
	if len(seeds) == 0 || !supportsWarmStart(sampler) {
		return sampler
	}
	switch sa := sampler.(type) {
	case *anneal.SimulatedAnnealer:
		cp := *sa
		cp.InitialStates = seeds
		return &cp
	case *anneal.ParallelTempering:
		cp := *sa
		cp.InitialStates = seeds
		return &cp
	case *anneal.TabuSampler:
		cp := *sa
		cp.InitialStates = seeds
		return &cp
	}
	return sampler
}

// warmable reports whether the configured sampler takes warm-start
// states (see supportsWarmStart); the default annealer does.
func (s *Solver) warmable() bool {
	return s.opts.Sampler == nil || supportsWarmStart(s.opts.Sampler)
}

// tierPlan reports whether Solve runs the shard tier plan: always with
// the default sampler, and with a custom Sampler when Options.Shard opts
// in.
func (s *Solver) tierPlan() bool {
	return s.opts.Shard || s.opts.Sampler == nil
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
	work, red := s.presolve(model, st)
	pl := s.newPlan(work, red, s.tierPlan(), st)
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
	pl := s.wholePlan(model, nil, s.compileModel(model, st), nil)
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
