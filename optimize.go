package qsmt

// optimize.go is the MaxSAT/OMT mode: weighted soft constraints and
// objective minimization layered onto the hard-penalty QUBO pipeline.
// QUBO is natively an optimizer — the sat path only ever asks it for a
// zero-penalty ground state — so the optimize loop reuses the whole
// machinery (presolve, the shard tier plan, warm starts, the verify
// loop) and changes just two things:
//
//   - model assembly: the Check-backed part of the hard model is scaled
//     by a weight M large enough that no combination of soft rewards can
//     pay for a hard violation (Bian et al.'s weighted MaxSAT-to-Ising
//     scheme), the hard model's printable style bias merges unscaled,
//     and each soft constraint's model is merged on at its weight, with
//     private auxiliary variables remapped past the hard variables;
//   - candidate handling: instead of returning the first verified
//     witness, every verified candidate is graded by its *theory*
//     objective value and the incumbent with the lowest weighted
//     objective wins, with early exit only on a proved-optimal
//     incumbent (objective equal to the lower bound). After each
//     attempt's candidates the acceptor sweeps every exact plan entry's
//     feasible local states against the incumbent, because the exact
//     tier returns ground states of the combined energy, and a soft's
//     QUBO surrogate is not its theory value.
//
// Presolve runs with every variable carrying objective mass protected
// (qubo.PresolveProtected), so fixing and folding fire only on
// variables the objective does not grade, and Reduction.Lift replays
// the objective value exactly.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/core"
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
	combined   *qubo.Model // M·(hard − bias) + bias + Σ wᵢ·softᵢ, aux remapped
	penalty    *qubo.Model // M·(hard − bias) alone, over the combined variables
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
		span += math.Abs(m.Linear(i))
	}
	for _, t := range m.Terms() {
		span += math.Abs(t.W)
	}
	return span
}

// buildOptimizePlan assembles the combined model. The hard weight M is
// 1 + softSpan/hardGap, where softSpan is the weighted sum of the softs'
// objective spans (the theory span for graded objectives, whose gadgets
// realize it exactly; the model's energy span for plain softs) and
// hardGap is the smallest coefficient magnitude of the hard model's
// Check-backed part — the minimum cost of violating a *checked* hard
// property under the paper's ±A encodings. That part is the hard model
// minus its printable style bias (core.StyleBiased), split by origin:
// Check never enforces styling, and an objective like MinLength must be
// able to out-pull the bias on unconstrained positions (NUL padding),
// so the bias merges at weight 1 while the rest scales by M. The bias of
// an encoder whose Check does enforce printability stays in the scaled
// part. Feasibility of the returned witness never depends on M — the
// verify loop rejects every hard-violating candidate — M only shapes the
// landscape so the sampler's low-energy states are feasible ones.
func buildOptimizePlan(hard []Constraint, soft []SoftConstraint) (*optPlan, error) {
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
	bias := qubo.New(H)
	if sb, ok := hc.(core.StyleBiased); ok {
		if bias, err = sb.StyleBias(); err != nil {
			return nil, err
		}
	}

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

	// The checked part: the hard model minus its style bias. The whole
	// hard offset stays with it, so wherever the old split by magnitude
	// agreed with this one the energies are unchanged (an offset shapes
	// no landscape). The hard gap skips the rounding residue the
	// subtraction can leave.
	checked := hm.Clone()
	checked.Merge(bias, -1)
	checked.AddOffset(bias.Offset())
	residue := 1e-9 * max(1, hm.MaxAbsCoefficient())
	gap := 0.0
	observeGap := func(v float64) {
		if a := math.Abs(v); a > residue && (gap == 0 || a < gap) {
			gap = a
		}
	}
	for i := 0; i < H; i++ {
		observeGap(checked.Linear(i))
	}
	for _, t := range checked.Terms() {
		observeGap(t.W)
	}

	M := 1.0
	if softSpan > 0 {
		if gap <= 0 {
			gap = 1
		}
		M = 1 + softSpan/gap
	}

	identity := func(v int) int { return v }
	penalty := qubo.New(totalVars)
	penalty.MergeMapped(checked, M, identity)
	combined := penalty.Clone()
	combined.MergeMapped(bias, 1, identity)
	combined.AddOffset(-bias.Offset()) // already in the checked part's
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
		penalty:    penalty,
		protected:  protected,
		hardWeight: M,
		bound:      0, // every theory value is a nonnegative count
	}, nil
}

// grade evaluates one combined-space assignment: decode and check the
// hard constraint on the leading hard variables, then compute the
// weighted theory objective of the witness.
func (pl *optPlan) grade(full []qubo.Bit) (w Witness, obj float64, vals []float64, v verdict, err error) {
	hardBits := full
	if len(full) >= pl.hardVars {
		hardBits = full[:pl.hardVars]
	}
	if w, v, err = examineCandidate(pl.hard, hardBits); v != verified {
		return Witness{}, 0, nil, v, err
	}
	vals = make([]float64, len(pl.softs))
	for i, sc := range pl.softs {
		if o, graded := sc.C.(core.Objective); graded {
			val, err := o.Value(w)
			if err != nil {
				return Witness{}, 0, nil, unverified, fmt.Errorf("qsmt: soft constraint %d (%s): %w", i, sc.C.Name(), err)
			}
			vals[i] = val
		} else if sc.C.Check(w) != nil {
			vals[i] = 1
		}
		obj += sc.Weight * vals[i]
	}
	return w, obj, vals, verified, nil
}

// Optimize finds a witness satisfying every hard constraint that
// minimizes the weighted soft objective Σ wᵢ·valueᵢ. Hard constraints
// are inviolable: the combined model scales their penalties above any
// achievable soft reward, and every returned witness passes their
// Check. The combined model is planned as SolveContext plans a model —
// the shard tier plan with the default sampler, the whole model with a
// custom one — and every new incumbent is followed by a sweep of the
// exact entries' feasible states. The result's Objective/ObjectiveValues report the theory-level
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
	op, err := buildOptimizePlan(hard, soft)
	if err != nil {
		return nil, err
	}
	st.SoftTerms = len(op.softs)
	st.HardWeight = op.hardWeight

	work, red := presolve(op.combined, op.protected, st)
	pl := s.newPlan(work, red, op.combined.N(), st)
	st.Compile = time.Since(start) - st.Presolve
	acc := &gradedIncumbent{op: op, pl: &pl, res: Result{Vars: op.combined.N(), Shards: max(len(pl.entries), 1)}}
	step := func(attempt int) error { return s.sampleShards(ctx, &pl, attempt, st) }
	if err := s.search(ctx, op.hard.Name(), &pl, step, acc, st); err != nil {
		return nil, err
	}
	res := &acc.res
	res.ObjectiveBound = op.bound
	res.ObjectiveOptimal = acc.optimal()
	st.Objective = res.Objective
	st.ObjectiveBound = res.ObjectiveBound
	st.ObjectiveOptimal = res.ObjectiveOptimal
	st.objectiveSet = true
	return finish(res, start, st), nil
}

// gradedIncumbent grades every verified candidate by its theory
// objective and keeps the best (Optimize). A search ends early only on
// an incumbent at the proven lower bound. It follows each new
// incumbent with a sweep of the plan's exact entries, whose candidates
// search offers it once an attempt's stream runs dry.
type gradedIncumbent struct {
	op  *optPlan
	pl  *plan      // the search's plan, which the sweep walks
	res Result     // the incumbent; Vars and Shards preset by the entry point
	x   []qubo.Bit // the incumbent's full-space assignment
	ok  bool
	// moved reports that the incumbent changed since the sweep last
	// looked at it.
	moved bool
	sw    *entrySweep // built on the first sweep
}

func (a *gradedIncumbent) offer(x []qubo.Bit, energy float64, attempt int) (bool, verdict, error) {
	w, obj, vals, v, err := a.op.grade(x)
	if v != verified {
		return false, v, err
	}
	if a.ok && obj >= a.res.Objective-optObjectiveEps {
		return false, v, nil
	}
	a.res.Witness, a.res.Energy, a.res.Attempts = w, energy, attempt+1
	a.res.Objective, a.res.ObjectiveValues = obj, vals
	a.x = append(a.x[:0], x...) // x is the search's reused buffer
	a.ok, a.moved = true, true
	return false, improved, nil
}

func (a *gradedIncumbent) optimal() bool {
	return a.ok && a.res.Objective <= a.op.bound+optObjectiveEps
}

func (a *gradedIncumbent) more() bool  { return !a.optimal() }
func (a *gradedIncumbent) found() bool { return a.ok }

// nextSweep returns the sweep's next candidate, ok=false when there is
// none. A sweep starts from an incumbent it has not seen, and each
// candidate replaces one exact entry's variables of the incumbent with
// one of that entry's feasible local states. The feasible states are
// enumerated on the first sweep of the search, so an incumbent already
// at the bound costs nothing.
func (a *gradedIncumbent) nextSweep() ([]qubo.Bit, float64, bool) {
	pl, sw := a.pl, a.sw
	switch {
	case a.optimal():
		return nil, 0, false // the search ends with this attempt
	case sw == nil || !sw.active:
		if !a.moved {
			return nil, 0, false
		}
		a.moved = false
		if sw == nil {
			sw = newEntrySweep(pl, a.op)
			a.sw = sw
		}
		if !sw.begin(pl, a.x) {
			return nil, 0, false
		}
	case a.moved:
		a.moved = false
		sw.commit(pl)
	}
	x, delta, ok := sw.advance(pl)
	return x, a.res.Energy + delta, ok
}

// maxSweepStates caps the feasible local states kept per exact entry
// (an entry without penalty terms has all 2^n of its states feasible),
// and maxSweepPasses the passes of one sweep.
const (
	maxSweepStates = 1 << 12
	maxSweepPasses = 8
)

// localState is one feasible state of a plan entry, with its energy
// under the entry's compiled model.
type localState struct {
	x      []qubo.Bit
	energy float64
}

// entrySweep is first-improvement local search over the exact entries
// of a plan, in the plan's working space. A pass offers, entry by
// entry, every feasible local state in place of the incumbent's; the
// acceptor keeps a candidate when its theory objective improves, and
// the sweep ends after a pass that kept nothing (or maxSweepPasses).
// The feasible states of an entry are the ground states of its part of
// the combined model's penalty terms, M·(hard − bias): by Bian et al.'s
// construction exactly the local assignments that satisfy the checked
// hard encodings, whatever the softs' surrogate energies prefer. When
// the objective separates over the entries, one pass reaches the
// optimum over them.
type entrySweep struct {
	states [][]localState // per plan entry: its feasible states; nil for entries not swept
	cur    []qubo.Bit     // the incumbent
	curE   []float64      // per plan entry: the incumbent's local energy
	buf    []qubo.Bit     // the candidate on offer: cur with one entry replaced
	entry  int            // the entry being swept
	next   int            // its next state
	passes int
	kept   bool // this pass moved the incumbent
	active bool
}

// newEntrySweep enumerates the feasible states of every exact entry of
// pl, from op's penalty part carried into the plan's working space.
func newEntrySweep(pl *plan, op *optPlan) *entrySweep {
	sw := &entrySweep{states: make([][]localState, len(pl.entries)), curE: make([]float64, len(pl.entries))}
	var penalty *qubo.Model
	var terms []qubo.QuadTerm
	var witness []bool
	for i := range pl.entries {
		if p := &pl.entries[i]; p.tier == tierExact {
			if penalty == nil {
				penalty = pl.red.Substitute(op.penalty)
				terms, witness = penalty.Terms(), witnessVars(pl, op.hardVars)
			}
			sw.states[i] = feasibleStates(p, induced(penalty, terms, p.shard.Vars), witness)
		}
	}
	return sw
}

// witnessVars marks the working variables the decoded witness depends
// on: those whose value reaches one of the first hardVars full-space
// variables through the lift. Every eliminated variable lifts as an
// affine function of at most one working variable, so flipping one
// variable from the all-zero assignment finds its dependents exactly.
func witnessVars(pl *plan, hardVars int) []bool {
	n := pl.model.N()
	witness := make([]bool, n)
	if pl.red == nil {
		for k := range witness {
			witness[k] = k < hardVars
		}
		return witness
	}
	x := make([]qubo.Bit, n)
	base := pl.red.Lift(x)[:hardVars]
	for k := range x {
		x[k] = 1
		witness[k] = !slices.Equal(base, pl.red.Lift(x)[:hardVars])
		x[k] = 0
	}
	return witness
}

// induced returns the part of m on vars — their linear terms, and those
// of m's quadratic terms that join two of them — as a model over
// len(vars) local variables.
func induced(m *qubo.Model, terms []qubo.QuadTerm, vars []int) *qubo.Model {
	local := make(map[int]int, len(vars))
	out := qubo.New(len(vars))
	for k, g := range vars {
		local[g] = k
		out.AddLinear(k, m.Linear(g))
	}
	for _, t := range terms {
		i, iok := local[t.I]
		j, jok := local[t.J]
		if iok && jok {
			out.AddQuadratic(i, j, t.W)
		}
	}
	return out
}

// feasibleStates enumerates the ground states of an entry's penalty
// model, up to maxSweepStates, as the cross product of the ground
// states of its connected components (each at most the entry's size,
// so exact enumeration is cheap). Each is priced under the entry's
// compiled model and they are ordered by that energy. States that agree
// on every witness variable decode to the same witness against any
// incumbent, so only the first — the lowest-energy one — is kept.
func feasibleStates(p *shardPlan, penalty *qubo.Model, witness []bool) []localState {
	sh := p.shard
	comps := qubo.Components(penalty)
	sets := make([]*anneal.SampleSet, len(comps))
	total := 1
	for c := range comps {
		ss, err := (&anneal.ExactSolver{MaxStates: maxSweepStates, Workers: 1}).Sample(comps[c].Model.Compile())
		if err != nil || ss.Len() == 0 {
			return nil
		}
		sets[c] = ss
		total = min(total*ss.Len(), maxSweepStates)
	}
	out := make([]localState, total)
	pick := make([]int, len(comps)) // an odometer over the components' ground states
	for k := range out {
		x := make([]qubo.Bit, len(sh.Vars))
		for c := range comps {
			comps[c].Scatter(x, sets[c].Samples[pick[c]].X)
		}
		out[k] = localState{x: x, energy: p.compiled.Energy(x)}
		for c := range pick {
			if pick[c]++; pick[c] < sets[c].Len() {
				break
			}
			pick[c] = 0
		}
	}
	slices.SortStableFunc(out, func(a, b localState) int { return cmp.Compare(a.energy, b.energy) })
	seen := make(map[uint32]bool, len(out)) // an entry has at most anneal.MaxExactVars < 32 variables
	kept := out[:0]
	for _, st := range out {
		key := uint32(0)
		for k, g := range sh.Vars {
			if witness[g] {
				key = key<<1 | uint32(st.x[k])
			}
		}
		if !seen[key] {
			seen[key] = true
			kept = append(kept, st)
		}
	}
	return kept
}

// begin starts a sweep from the full-space incumbent full; it reports
// false when the plan has no exact entry to sweep.
func (sw *entrySweep) begin(pl *plan, full []qubo.Bit) bool {
	swept := false
	for i := range sw.states {
		swept = swept || len(sw.states[i]) > 0
	}
	if !swept {
		return false
	}
	sw.cur = append(sw.cur[:0], pl.red.Project(full)...)
	sw.buf = append(sw.buf[:0], sw.cur...)
	for i := range sw.states {
		if len(sw.states[i]) > 0 {
			p := &pl.entries[i]
			sw.curE[i] = p.compiled.Energy(restrict(sw.cur, p.shard.Vars))
		}
	}
	sw.entry, sw.next, sw.passes, sw.kept, sw.active = 0, 0, 0, false, true
	return true
}

// commit makes the last offered candidate the sweep's incumbent.
func (sw *entrySweep) commit(pl *plan) {
	st := &sw.states[sw.entry][sw.next-1]
	pl.entries[sw.entry].shard.Scatter(sw.cur, st.x)
	sw.curE[sw.entry] = st.energy
	sw.kept = true
}

// advance builds the next candidate in buf and returns it with its
// energy relative to the incumbent's; ok=false ends the sweep.
func (sw *entrySweep) advance(pl *plan) (x []qubo.Bit, delta float64, ok bool) {
	for {
		if sw.entry == len(sw.states) {
			sw.passes++
			if !sw.kept || sw.passes == maxSweepPasses {
				sw.active = false
				return nil, 0, false
			}
			sw.entry, sw.kept = 0, false
		}
		states := sw.states[sw.entry]
		if sw.next == len(states) {
			if len(states) > 0 {
				// Leave the entry as the incumbent has it.
				sh := pl.entries[sw.entry].shard
				for _, g := range sh.Vars {
					sw.buf[g] = sw.cur[g]
				}
			}
			sw.entry, sw.next = sw.entry+1, 0
			continue
		}
		st := &states[sw.next]
		sw.next++
		sh := pl.entries[sw.entry].shard
		if sameAt(sw.cur, sh.Vars, st.x) {
			continue // the incumbent itself
		}
		sh.Scatter(sw.buf, st.x)
		return sw.buf, st.energy - sw.curE[sw.entry], true
	}
}

// sameAt reports whether x agrees with local at vars.
func sameAt(x []qubo.Bit, vars []int, local []qubo.Bit) bool {
	for k, g := range vars {
		if x[g] != local[k] {
			return false
		}
	}
	return true
}
