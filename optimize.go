package qsmt

// optimize.go is the MaxSAT/OMT mode: weighted soft constraints and
// objective minimization layered onto the hard-penalty QUBO pipeline.
// QUBO is natively an optimizer — the sat path only ever asks it for a
// zero-penalty ground state — so the optimize loop reuses the whole
// machinery (presolve, warm starts, shard decomposition, the verify
// loop) and changes just two things:
//
//   - model assembly: the hard model's penalties are scaled by a weight
//     M large enough that no combination of soft rewards can pay for a
//     hard violation (Bian et al.'s weighted MaxSAT-to-Ising scheme),
//     and each soft constraint's model is merged on at its weight, with
//     private auxiliary variables remapped past the hard variables;
//   - candidate handling: instead of returning the first verified
//     witness, every verified candidate is graded by its *theory*
//     objective value and the incumbent with the lowest weighted
//     objective wins, with early exit only on a proved-optimal
//     incumbent (objective equal to the lower bound).
//
// Presolve runs with every variable carrying objective mass protected
// (qubo.PresolveProtected), so fixing and folding fire only on
// variables the objective does not grade, and Reduction.Lift replays
// the objective value exactly.

import (
	"context"
	"fmt"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/core"
	"qsmt/internal/portfolio"
	"qsmt/internal/qubo"
)

// SoftConstraint is a constraint the solver tries to satisfy but may
// violate at a cost: Weight scales its QUBO penalty model inside the
// combined objective, and its theory-level violation value in the
// reported objective. Construct with Soft.
type SoftConstraint struct {
	C      Constraint
	Weight float64
}

// Soft wraps a constraint as a weighted soft constraint for
// Solver.Optimize. The weight must be positive. A graded objective
// (MinLength, MinEditsFrom) contributes weight·value; a plain
// constraint contributes weight when violated and 0 when satisfied.
func Soft(c Constraint, weight float64) SoftConstraint {
	return SoftConstraint{C: c, Weight: weight}
}

// MinLength is the shortest-string objective over an n-character frame:
// minimize the witness length, counting characters up to the last
// non-NUL (unused tail positions are driven to NUL padding). Use
// core.TrimPadding (or TrimPadding here) to strip the padding from the
// returned witness.
func MinLength(n int) Constraint { return &core.MinLen{N: n} }

// MinEditsFrom is the fewest-edits objective: minimize the number of
// character positions where the witness differs from hint. The hint's
// length fixes the frame length.
func MinEditsFrom(hint string) Constraint { return &core.MinEdits{Hint: hint} }

// TrimPadding strips the trailing NUL padding a MinLength frame leaves
// on unused positions.
func TrimPadding(s string) string { return core.TrimPadding(s) }

// Lex combines graded objectives lexicographically: the first entry is
// optimized first, ties broken by the second, and so on. It rescales
// the weights back to front so one unit of a higher-priority objective
// always outweighs the entire value span of everything below it
// (assuming integer-granular objective values, which MinLength and
// MinEditsFrom both have). Every member must be a graded objective —
// plain soft constraints have no span to stack against.
func Lex(objs ...SoftConstraint) ([]SoftConstraint, error) {
	out := make([]SoftConstraint, len(objs))
	total := 0.0
	for k := len(objs) - 1; k >= 0; k-- {
		o, ok := objs[k].C.(core.Objective)
		if !ok {
			return nil, fmt.Errorf("qsmt: lexicographic combination requires graded objectives, got %s at rank %d", objs[k].C.Name(), k)
		}
		if objs[k].Weight <= 0 {
			return nil, fmt.Errorf("qsmt: lexicographic objective %d has non-positive weight %v", k, objs[k].Weight)
		}
		w := total + objs[k].Weight
		out[k] = SoftConstraint{C: objs[k].C, Weight: w}
		total += w * o.Span()
	}
	return out, nil
}

// optObjectiveEps absorbs float noise when comparing objective values:
// weights are user-scale floats, objective values are small counts.
const optObjectiveEps = 1e-9

// optPlan is the assembled optimize instance: the combined QUBO, the
// bookkeeping to evaluate theory objectives on decoded witnesses, and
// the presolve protection mask.
type optPlan struct {
	hard       Constraint // single hard constraint (And of the inputs)
	softs      []SoftConstraint
	hardVars   int         // variable count of the hard model
	combined   *qubo.Model // M·hard + Σ wᵢ·softᵢ, aux remapped
	protected  []bool      // variables carrying objective mass
	hardWeight float64     // the M actually applied
	bound      float64     // proven lower bound on the weighted objective
}

// modelSpan bounds the energy range of a model (ignoring its offset):
// the sum of absolute coefficient values. Used to scale hard penalties
// above any achievable soft reward.
func modelSpan(m *qubo.Model) float64 {
	span := 0.0
	for i := 0; i < m.N(); i++ {
		span += abs(m.Linear(i))
	}
	for _, t := range m.Terms() {
		span += abs(t.W)
	}
	return span
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// buildOptimizePlan assembles the combined model. The hard weight M is
// Options.HardWeight when set, else 1 + softSpan/hardGap where softSpan
// is the weighted sum of the softs' objective spans (the theory span
// for graded objectives, whose gadgets realize it exactly; the model's
// energy span for plain softs) and hardGap is the smallest penalty-tier
// coefficient magnitude in the hard model — the minimum cost of
// violating a *checked* hard property under the paper's ±A encodings.
// The SoftFactor·A printable style-bias terms are deliberately not
// treated as hard: Check never enforces styling, and an objective like
// MinLength must be able to out-pull the bias on unconstrained
// positions (NUL padding), so the bias tier merges at weight 1 while
// the penalty tier scales by M. Feasibility of the returned witness
// never depends on M — the verify loop rejects every hard-violating
// candidate — M only shapes the landscape so the annealer's low-energy
// states are feasible ones.
func (s *Solver) buildOptimizePlan(hard []Constraint, soft []SoftConstraint) (*optPlan, error) {
	if len(hard) == 0 {
		return nil, fmt.Errorf("qsmt: optimize requires at least one hard constraint")
	}
	var hc Constraint
	if len(hard) == 1 {
		hc = hard[0]
	} else {
		hc = And(hard...)
	}
	hm, err := hc.BuildModel()
	if err != nil {
		return nil, err
	}
	H := hm.N()

	// Validate softs and size the combined model: each soft's primary
	// variables alias the hard model's leading variables; auxiliaries
	// are remapped past everything allocated so far.
	type softLayout struct {
		model   *qubo.Model
		primary int
		auxBase int
	}
	layouts := make([]softLayout, len(soft))
	totalVars := H
	softSpan := 0.0
	for i, sc := range soft {
		if sc.C == nil {
			return nil, fmt.Errorf("qsmt: soft constraint %d is nil", i)
		}
		if sc.Weight <= 0 {
			return nil, fmt.Errorf("qsmt: soft constraint %d (%s) has non-positive weight %v", i, sc.C.Name(), sc.Weight)
		}
		sm, err := sc.C.BuildModel()
		if err != nil {
			return nil, fmt.Errorf("qsmt: soft constraint %d (%s): %w", i, sc.C.Name(), err)
		}
		primary := sm.N()
		if o, ok := sc.C.(core.Objective); ok {
			primary = o.PrimaryVars()
		}
		if primary > H {
			return nil, fmt.Errorf("qsmt: soft constraint %d (%s) spans %d primary variables, hard model has %d",
				i, sc.C.Name(), primary, H)
		}
		layouts[i] = softLayout{model: sm, primary: primary, auxBase: totalVars}
		totalVars += sm.N() - primary
		if o, ok := sc.C.(core.Objective); ok {
			softSpan += sc.Weight * o.Span()
		} else {
			softSpan += sc.Weight * modelSpan(sm)
		}
	}

	// Partition the hard model's coefficients into penalty terms (the
	// Check-backed ±A encodings) and style bias (the SoftFactor·A
	// printable-preference terms, an order of magnitude weaker — Check
	// never enforces styling). Only the penalty tier scales by M, and the
	// hard gap is the smallest penalty-tier magnitude: amplifying the
	// bias alongside would let mere styling out-bid the objectives on
	// exactly the unconstrained positions the objectives exist to grade.
	cutoff := hm.MaxAbsCoefficient() / 4
	gap := 0.0
	strong := func(v float64) bool { return abs(v) >= cutoff }
	observeGap := func(v float64) {
		if v != 0 && strong(v) && (gap == 0 || abs(v) < gap) {
			gap = abs(v)
		}
	}
	for i := 0; i < H; i++ {
		observeGap(hm.Linear(i))
	}
	for _, t := range hm.Terms() {
		observeGap(t.W)
	}

	M := s.opts.HardWeight
	if M <= 0 {
		M = 1
		if softSpan > 0 {
			if gap <= 0 {
				gap = 1
			}
			M = 1 + softSpan/gap
		}
	}

	combined := qubo.New(totalVars)
	combined.AddOffset(M * hm.Offset())
	for i := 0; i < H; i++ {
		if v := hm.Linear(i); v != 0 {
			w := 1.0
			if strong(v) {
				w = M
			}
			combined.AddLinear(i, w*v)
		}
	}
	for _, t := range hm.Terms() {
		w := 1.0
		if strong(t.W) {
			w = M
		}
		combined.AddQuadratic(t.I, t.J, w*t.W)
	}
	protected := make([]bool, totalVars)
	for i, sc := range soft {
		lay := layouts[i]
		mapIdx := func(v int) int {
			if v < lay.primary {
				return v
			}
			return lay.auxBase + (v - lay.primary)
		}
		combined.MergeMapped(lay.model, sc.Weight, mapIdx)
		for v := 0; v < lay.model.N(); v++ {
			if lay.model.Linear(v) != 0 {
				protected[mapIdx(v)] = true
			}
		}
		for _, t := range lay.model.Terms() {
			protected[mapIdx(t.I)] = true
			protected[mapIdx(t.J)] = true
		}
	}

	return &optPlan{
		hard:       hc,
		softs:      soft,
		hardVars:   H,
		combined:   combined,
		protected:  protected,
		hardWeight: M,
		bound:      0, // every theory value is a nonnegative count
	}, nil
}

// grade evaluates one combined-space assignment: decode and check the
// hard constraint on the leading hard variables, then compute the
// weighted theory objective of the witness. ok is false when the
// candidate fails the hard constraint (checkErr says why); fatal
// carries a proved-unsatisfiable verdict.
func (pl *optPlan) grade(full []qubo.Bit, st *SolveStats) (w Witness, obj float64, vals []float64, ok bool, fatal, checkErr error) {
	hardBits := full
	if len(full) >= pl.hardVars {
		hardBits = full[:pl.hardVars]
	}
	w, ok, fatal, checkErr = examineCandidate(pl.hard, hardBits, st)
	if !ok {
		return Witness{}, 0, nil, false, fatal, checkErr
	}
	vals = make([]float64, len(pl.softs))
	for i, sc := range pl.softs {
		if o, graded := sc.C.(core.Objective); graded {
			v, err := o.Value(w)
			if err != nil {
				st.VerifyFailures++
				return Witness{}, 0, nil, false, nil, fmt.Errorf("qsmt: soft constraint %d (%s): %w", i, sc.C.Name(), err)
			}
			vals[i] = v
		} else if sc.C.Check(w) != nil {
			vals[i] = 1
		}
		obj += sc.Weight * vals[i]
	}
	return w, obj, vals, true, nil, nil
}

// Optimize finds a witness satisfying every hard constraint that
// minimizes the weighted soft objective Σ wᵢ·valueᵢ. Hard constraints
// are inviolable: the combined model scales their penalties above any
// achievable soft reward, and every returned witness passes their
// Check. The result's Objective/ObjectiveValues report the theory-level
// optimum found; ObjectiveOptimal is set only when the incumbent
// reached the proven lower bound (otherwise it is the best feasible
// solution the attempt budget reached).
func (s *Solver) Optimize(hard []Constraint, soft []SoftConstraint) (*Result, error) {
	return s.OptimizeContext(context.Background(), hard, soft)
}

// OptimizeContext is Optimize under a context; see SolveContext for the
// cancellation contract.
func (s *Solver) OptimizeContext(ctx context.Context, hard []Constraint, soft []SoftConstraint) (*Result, error) {
	var st SolveStats
	res, err := s.optimizeContext(ctx, hard, soft, &st)
	s.opts.Metrics.record(&st, err)
	s.syncCacheMetrics()
	return res, err
}

func (s *Solver) optimizeContext(ctx context.Context, hard []Constraint, soft []SoftConstraint, st *SolveStats) (*Result, error) {
	start := time.Now()
	pl, err := s.buildOptimizePlan(hard, soft)
	if err != nil {
		return nil, err
	}
	st.SoftTerms = len(pl.softs)
	st.HardWeight = pl.hardWeight

	work, red := s.presolveProtected(pl.combined, pl.protected, st)
	if s.opts.Shard {
		res, err, handled := s.optimizeSharded(ctx, pl, work, red, start, st)
		if handled {
			return res, err
		}
		st.ShardFallback = true
	}
	compiled := s.compileModel(work, st)
	st.Compile = time.Since(start) - st.Presolve
	seeds := s.warmSeeds(compiled)

	var incumbent *Result
	var lastCheck error
	var lastBest []qubo.Bit
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("qsmt: optimizing %s: %w", pl.hard.Name(), err)
		}
		refining := s.opts.RefineRetries && s.opts.Sampler == nil && attempt > 0 && lastBest != nil
		var ss *anneal.SampleSet
		var err error
		st.Attempts = attempt + 1
		if s.portfolioWholeModel() && !refining {
			st.Sampler = "portfolio"
			if len(seeds) > 0 {
				st.WarmSeeded++
			}
			phase := time.Now()
			var o *portfolio.Outcome
			o, err = s.racePortfolio(ctx, compiled, seeds, attempt, 0)
			st.Sample += time.Since(phase)
			if err == nil {
				st.observePortfolio(o)
				ss = o.Set
			}
		} else {
			sampler := s.samplerFor(attempt)
			if refining {
				sampler = &anneal.ReverseAnnealer{
					Initial: lastBest,
					Reads:   64,
					Sweeps:  1000,
					Seed:    s.opts.Seed + int64(attempt)*1_000_003,
				}
			} else if ws, ok := warmSampler(sampler, seeds); ok {
				sampler = ws
				st.WarmSeeded++
			}
			st.Sampler = samplerName(sampler)
			phase := time.Now()
			ss, err = s.sample(ctx, sampler, compiled)
			st.Sample += time.Since(phase)
		}
		if err != nil {
			return nil, fmt.Errorf("qsmt: sampling %s: %w", pl.hard.Name(), err)
		}
		st.Reads += ss.TotalReads()
		st.observeKernel(ss.Kernel)
		if len(ss.Samples) == 0 {
			lastCheck = fmt.Errorf("qsmt: sampler returned an empty sample set for %s", pl.hard.Name())
			continue
		}
		lastBest = ss.Best().X
		st.observeBest(ss.Best().Energy)
		st.MeanEnergy = ss.MeanEnergy()
		st.GroundFraction = ss.GroundFraction(0)

		limit := s.opts.CandidatesPerAttempt
		if limit > len(ss.Samples) {
			limit = len(ss.Samples)
		}
		phase := time.Now()
		for k := 0; k < limit; k++ {
			sample := ss.Samples[k]
			w, obj, vals, ok, fatal, checkErr := pl.grade(liftBits(red, sample.X), st)
			if fatal != nil {
				st.DecodeVerify += time.Since(phase)
				return nil, fatal
			}
			if !ok {
				lastCheck = checkErr
				continue
			}
			if incumbent == nil || obj < incumbent.Objective-optObjectiveEps {
				st.ObjectiveImprovements++
				incumbent = &Result{
					Witness:         w,
					Energy:          sample.Energy,
					Attempts:        attempt + 1,
					Vars:            pl.combined.N(),
					Shards:          1,
					Objective:       obj,
					ObjectiveValues: vals,
				}
			}
		}
		st.DecodeVerify += time.Since(phase)
		if incumbent != nil && incumbent.Objective <= pl.bound+optObjectiveEps {
			break // proved optimal; further attempts cannot improve
		}
	}
	return s.finishOptimize(pl, incumbent, lastCheck, start, st)
}

// optimizeSharded is the optimize analogue of solveSharded: the
// combined model's components are solved as independent shards and the
// merged candidates (shardCandidates) are graded against the theory
// objective.
// handled is false when the interaction graph is connected.
func (s *Solver) optimizeSharded(ctx context.Context, pl *optPlan, model *qubo.Model, red *qubo.Reduction, start time.Time, st *SolveStats) (*Result, error, bool) {
	shards := qubo.Components(model)
	if len(shards) <= 1 {
		return nil, nil, false
	}
	st.Shards = len(shards)
	plans := s.planShards(shards, st)
	st.Compile = time.Since(start) - st.Presolve

	var incumbent *Result
	var lastCheck error
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("qsmt: optimizing %s: %w", pl.hard.Name(), err), true
		}
		st.Attempts = attempt + 1
		st.Sampler = s.shardSamplerName(attempt)

		phase := time.Now()
		sets, err := s.sampleShards(ctx, plans, attempt, st)
		st.Sample += time.Since(phase)
		if err != nil {
			return nil, fmt.Errorf("qsmt: sampling %s: %w", pl.hard.Name(), err), true
		}

		maxLen := aggregateShardSets(model, sets, st)
		if maxLen <= 0 {
			lastCheck = fmt.Errorf("qsmt: empty sample set for a shard of %s", pl.hard.Name())
			continue
		}

		cands := newShardCandidates(model, plans, sets, maxLen, s.opts.CandidatesPerAttempt, s.opts.Seed, attempt)
		phase = time.Now()
		for {
			x, energy, more := cands.next()
			if !more {
				break
			}
			w, obj, vals, ok, fatal, checkErr := pl.grade(liftBits(red, x), st)
			if fatal != nil {
				st.DecodeVerify += time.Since(phase)
				return nil, fatal, true
			}
			if !ok {
				lastCheck = checkErr
				continue
			}
			if incumbent == nil || obj < incumbent.Objective-optObjectiveEps {
				st.ObjectiveImprovements++
				incumbent = &Result{
					Witness:         w,
					Energy:          energy,
					Attempts:        attempt + 1,
					Vars:            pl.combined.N(),
					Shards:          len(shards),
					Objective:       obj,
					ObjectiveValues: vals,
				}
			}
		}
		st.DecodeVerify += time.Since(phase)
		if incumbent != nil && incumbent.Objective <= pl.bound+optObjectiveEps {
			break
		}
	}
	res, err := s.finishOptimize(pl, incumbent, lastCheck, start, st)
	return res, err, true
}

// finishOptimize settles an optimize run: stamp the incumbent with
// bound/optimality status and final stats, or report the failure.
func (s *Solver) finishOptimize(pl *optPlan, incumbent *Result, lastCheck error, start time.Time, st *SolveStats) (*Result, error) {
	if incumbent == nil {
		if lastCheck != nil {
			return nil, fmt.Errorf("%w (last failure: %v)", ErrNoModel, lastCheck)
		}
		return nil, ErrNoModel
	}
	incumbent.ObjectiveBound = pl.bound
	incumbent.ObjectiveOptimal = incumbent.Objective <= pl.bound+optObjectiveEps
	incumbent.Elapsed = time.Since(start)
	st.Objective = incumbent.Objective
	st.ObjectiveBound = incumbent.ObjectiveBound
	st.ObjectiveOptimal = incumbent.ObjectiveOptimal
	st.objectiveSet = true
	incumbent.Stats = *st
	return incumbent, nil
}
