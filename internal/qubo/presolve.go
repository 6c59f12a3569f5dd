package qubo

import (
	"fmt"
	"sort"
)

// This file is the QUBO presolve engine: it shrinks a model *before* it
// reaches a sampler by eliminating variables whose ground-state values are
// provable from the constraint structure alone, in the spirit of the
// variable-fixing pre-processing that dominates practical annealing
// speedups (Bian et al., "Solving SAT and MaxSAT with a Quantum
// Annealer"). Three rules run to a fixed point:
//
//  1. One-local persistency fixing. Let neg_i = Σ_j min(W_ij, 0) and
//     pos_i = Σ_j max(W_ij, 0). For every context x the flip delta of
//     variable i is ΔE_i(0→1) = h_i + Σ_j W_ij·x_j ∈ [h_i+neg_i, h_i+pos_i].
//     If h_i + neg_i > 0 the delta is strictly positive in every context,
//     so x_i = 0 in every minimizer (strong persistency); symmetrically
//     h_i + pos_i < 0 forces x_i = 1. The inequalities are kept strict on
//     purpose: a weakly indifferent variable (e.g. a free character) is
//     left in the model so the sampler keeps exploring its degenerate
//     values across retries.
//
//  2. Pendant (degree-1) elimination. A variable i whose only coupler is
//     W_ij contributes x_i·(h_i + W_ij·x_j), which minimizes in closed
//     form per value of x_j: min(h_i,0) when x_j=0 and min(h_i+W_ij,0)
//     when x_j=1. Folding the difference into h_j and the base into the
//     offset removes i exactly; the lift-back rule replays the argmin
//     (ties broken to 0).
//
//  3. Duplicate/complement merging. For a coupler W_ij, split i's
//     remaining coupler mass R_i = Σ_{k≠j} W_ik·x_k ∈ [negR_i, posR_i].
//     If h_i + W_ij + posR_i < 0 and h_i + negR_i > 0 then x_i strictly
//     prefers 1 whenever x_j = 1 and 0 whenever x_j = 0 — every minimizer
//     has x_i = x_j, and substituting x_i := x_j is exact (h_j += h_i+W_ij,
//     couplers of i fold onto j). Symmetrically h_i + W_ij + negR_i > 0
//     and h_i + posR_i < 0 lock x_i = 1 − x_j (substitution uses
//     x_i·x_j = x_j − x_j·x_j = 0: the pair coupler vanishes, h_i moves to
//     the offset and negates onto h_j, i's couplers fold negated onto j).
//
// Every rule preserves the exact identity
//
//	E_full(Lift(x)) = E_reduced(x)   for every reduced assignment x,
//
// not merely equality of the minima — the property the differential tests
// pin. Because rules 1 and 3 fire only under strict domination, every
// ground state of the full model survives into the reduced model; only
// rule 2's tie-breaking can collapse exact ties.
type Reduction struct {
	// FullN is the variable count of the presolved model.
	FullN int
	// Model is the reduced model over the surviving variables, carrying
	// the folded offset so its energies equal full-model energies.
	Model *Model
	// Vars maps reduced variable k to its original index Vars[k],
	// ascending.
	Vars []int
	// Stats summarizes what the rules did.
	Stats PresolveStats

	steps []liftStep
}

// PresolveStats counts rule applications of one Presolve run.
type PresolveStats struct {
	Rounds           int // fixed-point sweeps over the variables (≥ 1)
	FixedZero        int // persistency fixings to 0
	FixedOne         int // persistency fixings to 1
	Pendants         int // degree-1 closed-form eliminations
	MergedEqual      int // x_i = x_j merges
	MergedComplement int // x_i = 1 − x_j merges
}

// Eliminated returns how many variables presolve removed.
func (r *Reduction) Eliminated() int { return r.FullN - len(r.Vars) }

// Reduced reports whether presolve removed at least one variable.
func (r *Reduction) Reduced() bool { return r.Eliminated() > 0 }

// liftStep is one recorded elimination; Lift replays the record in
// reverse elimination order, so the referenced neighbor j is always
// resolved (surviving or later-eliminated) before the step runs.
type liftStep struct {
	kind liftKind
	i    int // eliminated original variable
	j    int // referenced original variable (pendant/merge rules)
	v0   Bit // fixed value, or pendant value when x_j = 0
	v1   Bit // pendant value when x_j = 1
}

type liftKind uint8

const (
	liftFixed liftKind = iota
	liftPendant
	liftEqual
	liftComplement
)

// Lift maps a reduced-model assignment back to a full-model assignment
// with E_full(Lift(x)) = E_reduced(x). len(x) must match the reduced
// model.
func (r *Reduction) Lift(x []Bit) []Bit {
	full := make([]Bit, r.FullN)
	r.LiftInto(full, x)
	return full
}

// Project maps a full-model assignment onto the reduced variable space:
// reduced variable k takes full[Vars[k]], eliminated variables are
// dropped. It is the left inverse of Lift on surviving variables
// (Project(Lift(x)) == x for every reduced x), and is how an assignment
// found for an earlier revision of a model — an incremental session's
// parent-frame witness — is threaded through a fresh presolve as a
// warm-start state. A nil reduction (presolve eliminated nothing) is
// the identity.
func (r *Reduction) Project(full []Bit) []Bit {
	if r == nil {
		return full
	}
	if len(full) != r.FullN {
		panic(fmt.Sprintf("qubo: project of %d bits, full model has %d", len(full), r.FullN))
	}
	x := make([]Bit, len(r.Vars))
	for k, g := range r.Vars {
		x[k] = full[g]
	}
	return x
}

// LiftInto is Lift into a caller-provided slice of length FullN.
func (r *Reduction) LiftInto(full, x []Bit) {
	if len(x) != r.Model.N() {
		panic(fmt.Sprintf("qubo: lift of %d bits, reduced model has %d", len(x), r.Model.N()))
	}
	if len(full) != r.FullN {
		panic(fmt.Sprintf("qubo: lift into %d bits, full model has %d", len(full), r.FullN))
	}
	for k, g := range r.Vars {
		full[g] = x[k]
	}
	for s := len(r.steps) - 1; s >= 0; s-- {
		st := r.steps[s]
		switch st.kind {
		case liftFixed:
			full[st.i] = st.v0
		case liftPendant:
			if full[st.j] != 0 {
				full[st.i] = st.v1
			} else {
				full[st.i] = st.v0
			}
		case liftEqual:
			full[st.i] = full[st.j]
		case liftComplement:
			full[st.i] = 1 - full[st.j]
		}
	}
}

// Substitute rewrites another model over the same FullN variables onto
// the reduced variables, with m.Energy(r.Lift(x)) equal to the
// result's energy at x for every reduced x. Every lift step is an
// affine substitution x_i = c + s·x_j with s ∈ {−1, 0, 1} (a pendant's
// replay rule included), applied in elimination order, so the identity
// holds for any model, not only the one presolve reduced. The optimize
// mode uses it to carry the hard penalty part of its combined model
// into the presolved space. A nil reduction returns m.
func (r *Reduction) Substitute(m *Model) *Model {
	if r == nil {
		return m
	}
	if m.n != r.FullN {
		panic(fmt.Sprintf("qubo: substitute into a %d-variable model, reduction has %d", m.n, r.FullN))
	}
	h := append([]float64(nil), m.diag...)
	adj := make([]map[int]float64, m.n)
	couple := func(i, j int, w float64) {
		for _, e := range [2][2]int{{i, j}, {j, i}} {
			if adj[e[0]] == nil {
				adj[e[0]] = map[int]float64{}
			}
			adj[e[0]][e[1]] += w
		}
	}
	for k, w := range m.quad {
		couple(k.I, k.J, w)
	}
	offset := m.offset
	for _, st := range r.steps {
		c, s := st.affine()
		i, j := st.i, st.j
		offset += h[i] * c
		if s != 0 {
			h[j] += h[i] * s
		}
		for k, w := range adj[i] {
			delete(adj[k], i)
			h[k] += w * c
			switch {
			case s == 0:
			case k == j: // x_j·x_j = x_j
				h[j] += w * s
			default:
				couple(j, k, w*s)
			}
		}
		adj[i], h[i] = nil, 0
	}
	local := make(map[int]int, len(r.Vars))
	for k, g := range r.Vars {
		local[g] = k
	}
	out := New(len(r.Vars))
	out.AddOffset(offset)
	for k, g := range r.Vars {
		if h[g] != 0 {
			out.AddLinear(k, h[g])
		}
		for j, w := range adj[g] {
			if j > g && w != 0 {
				out.AddQuadratic(k, local[j], w)
			}
		}
	}
	return out
}

// affine returns the step's substitution x_i = c + s·x_j.
func (st liftStep) affine() (c, s float64) {
	switch st.kind {
	case liftPendant:
		return float64(st.v0), float64(st.v1) - float64(st.v0)
	case liftEqual:
		return 0, 1
	case liftComplement:
		return 1, -1
	}
	return float64(st.v0), 0 // liftFixed
}

// presolver is the mutable working state: per-variable fields and a
// map-backed adjacency that supports O(1) coupler deletion as variables
// are eliminated.
type presolver struct {
	h         []float64
	adj       []map[int]float64
	alive     []bool
	offset    float64
	steps     []liftStep
	stats     PresolveStats
	protected []bool // never eliminate these (optimize objective mass)
}

// Presolve reduces a model to a fixed point of the three elimination
// rules and returns the Reduction. The input model is not modified. The
// run is deterministic: rules are tried in ascending variable order and
// merges scan neighbors in ascending index order.
func Presolve(m *Model) *Reduction {
	return PresolveProtected(m, nil)
}

// PresolveProtected is Presolve with a protection mask: a variable i with
// protected[i] set is never *eliminated* (no fixing, pendant folding or
// merging fires on it), though unprotected neighbors may still fold their
// coefficients onto it. The optimize path protects every variable
// carrying objective (soft-constraint) mass so the sampler keeps the
// whole objective landscape to explore — a persistency fix that is
// strictly downhill for the weighted sum could otherwise freeze the very
// trade-off the objective is meant to grade. The exact replay identity
// E_full(Lift(x)) = E_reduced(x) is unchanged, so lifted assignments
// replay the objective value exactly. A nil mask means no protection;
// otherwise len(protected) must equal m.N().
func PresolveProtected(m *Model, protected []bool) *Reduction {
	if protected != nil && len(protected) != m.n {
		panic(fmt.Sprintf("qubo: protection mask has %d entries, model has %d variables", len(protected), m.n))
	}
	p := &presolver{
		h:         make([]float64, m.n),
		adj:       make([]map[int]float64, m.n),
		alive:     make([]bool, m.n),
		offset:    m.offset,
		steps:     make([]liftStep, 0, m.n),
		protected: protected,
	}
	copy(p.h, m.diag)
	for i := range p.alive {
		p.alive[i] = true
	}
	// Size every adjacency map to its variable's degree: merges only
	// fold couplers onto existing neighbours, so maps rarely grow.
	deg := make([]int32, m.n)
	for k := range m.quad {
		deg[k.I]++
		deg[k.J]++
	}
	for i, d := range deg {
		if d > 0 {
			p.adj[i] = make(map[int]float64, d)
		}
	}
	for k, w := range m.quad {
		if w == 0 {
			continue
		}
		p.couple(k.I, k.J, w)
	}

	for {
		p.stats.Rounds++
		changed := false
		for i := 0; i < m.n; i++ {
			if !p.alive[i] {
				continue
			}
			if p.protected != nil && p.protected[i] {
				continue
			}
			if p.tryEliminate(i) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return p.finish(m)
}

// couple adds w to the working coupler (i,j), deleting exact zeros so
// degree counts stay meaningful.
func (p *presolver) couple(i, j int, w float64) {
	add := func(a, b int) {
		if p.adj[a] == nil {
			p.adj[a] = make(map[int]float64)
		}
		nv := p.adj[a][b] + w
		if nv == 0 {
			delete(p.adj[a], b)
		} else {
			p.adj[a][b] = nv
		}
	}
	add(i, j)
	add(j, i)
}

// masses returns Σ min(W_ij,0) and Σ max(W_ij,0) over i's live couplers.
func (p *presolver) masses(i int) (neg, pos float64) {
	for _, w := range p.adj[i] {
		if w < 0 {
			neg += w
		} else {
			pos += w
		}
	}
	return neg, pos
}

// tryEliminate applies the first rule that fires for variable i.
func (p *presolver) tryEliminate(i int) bool {
	neg, pos := p.masses(i)
	switch {
	case p.h[i]+neg > 0: // strictly uphill in every context
		p.fix(i, 0)
		p.stats.FixedZero++
		return true
	case p.h[i]+pos < 0: // strictly downhill in every context
		p.fix(i, 1)
		p.stats.FixedOne++
		return true
	}
	if len(p.adj[i]) == 1 {
		p.pendant(i)
		p.stats.Pendants++
		return true
	}
	// Merge scan: ascending neighbor order for determinism. Conditions
	// split i's coupler mass into the candidate pair coupler w and the
	// rest (negR, posR).
	if len(p.adj[i]) > 1 {
		nbs := make([]int, 0, len(p.adj[i]))
		for j := range p.adj[i] {
			nbs = append(nbs, j)
		}
		sort.Ints(nbs)
		for _, j := range nbs {
			w := p.adj[i][j]
			negR, posR := neg, pos
			if w < 0 {
				negR -= w
			} else {
				posR -= w
			}
			if p.h[i]+w+posR < 0 && p.h[i]+negR > 0 {
				p.mergeEqual(i, j, w)
				p.stats.MergedEqual++
				return true
			}
			if p.h[i]+w+negR > 0 && p.h[i]+posR < 0 {
				p.mergeComplement(i, j, w)
				p.stats.MergedComplement++
				return true
			}
		}
	}
	return false
}

// fix eliminates i at the fixed value v: a 1 folds the field into the
// offset and the couplers into the neighbors' fields; a 0 just drops
// them.
func (p *presolver) fix(i int, v Bit) {
	if v != 0 {
		p.offset += p.h[i]
		for j, w := range p.adj[i] {
			p.h[j] += w
		}
	}
	p.drop(i)
	p.steps = append(p.steps, liftStep{kind: liftFixed, i: i, v0: v})
}

// pendant eliminates the degree-1 variable i in closed form.
func (p *presolver) pendant(i int) {
	var j int
	var w float64
	for n, nw := range p.adj[i] { // exactly one entry
		j, w = n, nw
	}
	base := minZero(p.h[i])      // optimal contribution when x_j = 0
	withJ := minZero(p.h[i] + w) // optimal contribution when x_j = 1
	p.offset += base
	p.h[j] += withJ - base
	st := liftStep{kind: liftPendant, i: i, j: j}
	if p.h[i] < 0 {
		st.v0 = 1
	}
	if p.h[i]+w < 0 {
		st.v1 = 1
	}
	p.drop(i)
	p.steps = append(p.steps, st)
}

// mergeEqual substitutes x_i := x_j (the pair coupler w collapses onto
// h_j because x_j·x_j = x_j).
func (p *presolver) mergeEqual(i, j int, w float64) {
	p.h[j] += p.h[i] + w
	p.unlink(i, j)
	for k, wk := range p.adj[i] {
		delete(p.adj[k], i)
		p.couple(j, k, wk)
	}
	p.adj[i] = nil
	p.alive[i] = false
	p.steps = append(p.steps, liftStep{kind: liftEqual, i: i, j: j})
}

// mergeComplement substitutes x_i := 1 − x_j (the pair coupler vanishes
// because (1−x_j)·x_j = 0).
func (p *presolver) mergeComplement(i, j int, _ float64) {
	p.offset += p.h[i]
	p.h[j] -= p.h[i]
	p.unlink(i, j)
	for k, wk := range p.adj[i] {
		delete(p.adj[k], i)
		p.h[k] += wk
		p.couple(j, k, -wk)
	}
	p.adj[i] = nil
	p.alive[i] = false
	p.steps = append(p.steps, liftStep{kind: liftComplement, i: i, j: j})
}

// drop removes i and its couplers from the working graph.
func (p *presolver) drop(i int) {
	for j := range p.adj[i] {
		delete(p.adj[j], i)
	}
	p.adj[i] = nil
	p.alive[i] = false
}

// unlink removes just the (i,j) pair coupler.
func (p *presolver) unlink(i, j int) {
	delete(p.adj[i], j)
	delete(p.adj[j], i)
}

// finish builds the reduced model over the survivors.
func (p *presolver) finish(m *Model) *Reduction {
	vars := make([]int, 0, m.n)
	local := make([]int, m.n)
	for i, a := range p.alive {
		if a {
			local[i] = len(vars)
			vars = append(vars, i)
		}
	}
	couplers := 0
	for _, g := range vars {
		couplers += len(p.adj[g])
	}
	red := NewSized(len(vars), couplers/2)
	red.AddOffset(p.offset)
	for k, g := range vars {
		if p.h[g] != 0 {
			red.AddLinear(k, p.h[g])
		}
	}
	for _, g := range vars {
		for j, w := range p.adj[g] {
			if j > g { // each surviving coupler once
				red.AddQuadratic(local[g], local[j], w)
			}
		}
	}
	return &Reduction{
		FullN: m.n,
		Model: red,
		Vars:  vars,
		Stats: p.stats,
		steps: p.steps,
	}
}

// minZero returns min(v, 0).
func minZero(v float64) float64 {
	if v < 0 {
		return v
	}
	return 0
}
