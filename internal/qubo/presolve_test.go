package qubo

import (
	"math"
	"testing"
)

// presolveRNG is a tiny deterministic generator for test-model synthesis
// (xorshift64*), independent of the annealing substrate.
type presolveRNG uint64

func (r *presolveRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = presolveRNG(x)
	return x * 0x2545f4914f6cdd1d
}

func (r *presolveRNG) float() float64 { // uniform [-1, 1)
	return float64(int64(r.next()>>11))/float64(1<<52) - 1
}

func (r *presolveRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomPresolveModel synthesizes a model with structure the presolve
// rules can bite on: equality-penalty pairs (h=+s, W=−2s — the merge
// shape), strongly biased fields (the persistency shape), sparse random
// couplers (pendants and chains), and a few exactly-free variables.
func randomPresolveModel(r *presolveRNG, n int) *Model {
	m := New(n)
	m.AddOffset(r.float() * 3)
	for i := 0; i < n; i++ {
		switch r.intn(4) {
		case 0: // strong bias — persistency candidate
			m.AddLinear(i, (r.float()+1.5)*4*float64(1-2*r.intn(2)))
		case 1: // mild bias
			m.AddLinear(i, r.float())
		case 2: // exactly free unless couplers arrive below
		case 3:
			m.AddLinear(i, r.float()*0.25)
		}
	}
	edges := n + r.intn(2*n+1)
	for e := 0; e < edges; e++ {
		i, j := r.intn(n), r.intn(n)
		if i == j {
			continue
		}
		if r.intn(3) == 0 {
			// Equality-penalty pair: (x_i − x_j)² scaled.
			s := 1 + 2*math.Abs(r.float())
			m.AddLinear(i, s)
			m.AddLinear(j, s)
			m.AddQuadratic(i, j, -2*s)
		} else {
			m.AddQuadratic(i, j, r.float()*2)
		}
	}
	return m
}

// bruteMin exhaustively minimizes a model (n ≤ 20), returning the ground
// energy and one minimizer.
func bruteMin(t *testing.T, m *Model) (float64, []Bit) {
	t.Helper()
	n := m.N()
	if n > 20 {
		t.Fatalf("bruteMin on %d variables", n)
	}
	best := math.Inf(1)
	bestX := make([]Bit, n)
	x := make([]Bit, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = Bit(mask >> i & 1)
		}
		if e := m.Energy(x); e < best {
			best = e
			copy(bestX, x)
		}
	}
	return best, bestX
}

// approxEq compares energies with the repo's standard 1e-9 equivalence
// tolerance (presolve folds coefficients, so reduced-model float
// round-off differs from direct evaluation by ulps, not by bits).
func approxEq(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// TestPresolvePersistencyFixing pins rule 1 on a hand-built model: a
// dominating field forces the variable in every minimizer.
func TestPresolvePersistencyFixing(t *testing.T) {
	m := New(3)
	m.AddLinear(0, 10)  // fixed to 0: couplers sum to at most 3 in magnitude
	m.AddLinear(1, -10) // fixed to 1
	m.AddLinear(2, 0.5)
	m.AddQuadratic(0, 2, 1)
	m.AddQuadratic(1, 2, -2)

	r := Presolve(m)
	if r.Stats.FixedZero != 1 || r.Stats.FixedOne != 2 {
		// x0 fixes to 0, x1 to 1; folding x1's coupler drives x2's field
		// to 0.5 − 2 < 0, a second 1-fix in the cascade.
		t.Fatalf("fix counts = %+v, want one 0-fix and two 1-fixes", r.Stats)
	}
	// After fixing x0=0 and x1=1, x2's field is 0.5 − 2 < 0 → also fixed.
	if r.Model.N() != 0 {
		t.Fatalf("reduced model has %d vars, want 0 (cascade)", r.Model.N())
	}
	full := r.Lift([]Bit{})
	want := []Bit{0, 1, 1}
	for i := range want {
		if full[i] != want[i] {
			t.Fatalf("Lift = %v, want %v", full, want)
		}
	}
	gotE := r.Model.Offset()
	wantE, _ := bruteMin(t, m)
	if !approxEq(gotE, wantE) {
		t.Fatalf("reduced offset %g != ground energy %g", gotE, wantE)
	}
}

// TestPresolvePendantChain pins rule 2: a path graph folds from the
// leaves inward to a single variable, exactly.
func TestPresolvePendantChain(t *testing.T) {
	const n = 8
	m := New(n)
	for i := 0; i < n; i++ {
		m.AddLinear(i, 0.3)
	}
	for i := 0; i+1 < n; i++ {
		m.AddQuadratic(i, i+1, -1)
	}
	r := Presolve(m)
	if r.Model.N() != 0 {
		t.Fatalf("chain reduced to %d vars, want 0", r.Model.N())
	}
	wantE, _ := bruteMin(t, m)
	if !approxEq(r.Model.Offset(), wantE) {
		t.Fatalf("reduced offset %g != ground energy %g", r.Model.Offset(), wantE)
	}
	full := r.Lift([]Bit{})
	if e := m.Energy(full); !approxEq(e, wantE) {
		t.Fatalf("lifted energy %g != ground %g", e, wantE)
	}
}

// TestPresolveMerges pins rule 3 on the equality-penalty gadget the
// string encoders emit: s·(x_i − x_j)² locks the pair, and the merged
// pair then resolves against a small field.
func TestPresolveMerges(t *testing.T) {
	m := New(3)
	// 4·(x0 − x1)² = 4·x0 + 4·x1 − 8·x0·x1; small fields elsewhere.
	m.AddLinear(0, 4)
	m.AddLinear(1, 4)
	m.AddQuadratic(0, 1, -8)
	m.AddLinear(0, -0.5) // nudges the locked pair toward 1
	m.AddQuadratic(1, 2, 0.25)
	m.AddLinear(2, 0.1)

	r := Presolve(m)
	wantE, wantX := bruteMin(t, m)
	if !approxEq(r.Model.Offset()+bruteGround(r.Model), wantE) {
		t.Fatalf("reduced ground %g != full ground %g",
			r.Model.Offset()+bruteGround(r.Model), wantE)
	}
	if r.Stats.MergedEqual == 0 && r.Model.N() > 1 {
		t.Fatalf("equality gadget did not merge: stats=%+v reducedN=%d", r.Stats, r.Model.N())
	}
	_, redX := bruteMin(t, r.Model)
	full := r.Lift(redX)
	if e := m.Energy(full); !approxEq(e, wantE) {
		t.Fatalf("lifted minimizer energy %g != ground %g (want assignment like %v)", e, wantE, wantX)
	}
}

// bruteGround returns the ground energy of a model minus its offset,
// by exhaustive search (helper for small reduced models).
func bruteGround(m *Model) float64 {
	n := m.N()
	best := math.Inf(1)
	x := make([]Bit, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = Bit(mask >> i & 1)
		}
		if e := m.Energy(x); e < best {
			best = e
		}
	}
	return best - m.Offset()
}

// TestPresolveComplementMerge builds the complement gadget directly:
// a strongly positive coupler with fields that force exactly one of the
// pair on.
func TestPresolveComplementMerge(t *testing.T) {
	m := New(2)
	m.AddLinear(0, -3) // wants on
	m.AddLinear(1, -3) // wants on
	m.AddQuadratic(0, 1, 6)

	r := Presolve(m)
	wantE, _ := bruteMin(t, m)
	var redGround float64
	if r.Model.N() > 0 {
		redGround = bruteGround(r.Model)
	}
	if !approxEq(r.Model.Offset()+redGround, wantE) {
		t.Fatalf("reduced ground %g != full ground %g", r.Model.Offset()+redGround, wantE)
	}
	if r.Eliminated() == 0 {
		t.Fatalf("complement gadget eliminated nothing: %+v", r.Stats)
	}
}

// TestPresolveLeavesFreeVariables: an exactly-indifferent variable (zero
// field, no couplers) must survive presolve so the sampler keeps
// exploring its degenerate values.
func TestPresolveLeavesFreeVariables(t *testing.T) {
	m := New(3)
	m.AddLinear(0, 5) // fixed
	// 1 and 2 are exactly free.
	r := Presolve(m)
	if r.Model.N() != 2 {
		t.Fatalf("reduced to %d vars, want the 2 free ones", r.Model.N())
	}
	if r.Vars[0] != 1 || r.Vars[1] != 2 {
		t.Fatalf("survivors = %v, want [1 2]", r.Vars)
	}
}

// TestPresolveEmptyAndTrivialModels pins the degenerate shapes.
func TestPresolveEmptyAndTrivialModels(t *testing.T) {
	r := Presolve(New(0))
	if r.FullN != 0 || r.Model.N() != 0 || r.Reduced() {
		t.Fatalf("empty model reduction = %+v", r)
	}
	if got := r.Lift([]Bit{}); len(got) != 0 {
		t.Fatalf("empty lift = %v", got)
	}

	m := New(1)
	m.AddLinear(0, -2)
	m.AddOffset(7)
	r = Presolve(m)
	if r.Model.N() != 0 || !approxEq(r.Model.Offset(), 5) {
		t.Fatalf("single-var model: reducedN=%d offset=%g, want 0 and 5", r.Model.N(), r.Model.Offset())
	}
	if full := r.Lift([]Bit{}); full[0] != 1 {
		t.Fatalf("lift = %v, want [1]", full)
	}
}

// TestPresolveDifferentialRandom is the acceptance differential: across
// hundreds of random structured models, presolve + lift-back must
// reproduce (a) the exact energy identity E_full(Lift(x)) = E_reduced(x)
// for arbitrary reduced assignments, and (b) the exhaustive ground
// energy, with the lifted minimizer verifying as a full-model minimizer.
func TestPresolveDifferentialRandom(t *testing.T) {
	rng := presolveRNG(0x9e3779b97f4a7c15)
	const cases = 250
	for tc := 0; tc < cases; tc++ {
		n := 1 + rng.intn(14)
		m := randomPresolveModel(&rng, n)
		r := Presolve(m)
		if r.Model.N() > n {
			t.Fatalf("case %d: presolve grew the model: %d -> %d", tc, n, r.Model.N())
		}

		// (a) The energy identity on random reduced assignments.
		for probe := 0; probe < 8; probe++ {
			x := make([]Bit, r.Model.N())
			for i := range x {
				x[i] = Bit(rng.intn(2))
			}
			full := r.Lift(x)
			if eF, eR := m.Energy(full), r.Model.Energy(x); !approxEq(eF, eR) {
				t.Fatalf("case %d probe %d: E_full(Lift(x))=%g != E_reduced(x)=%g (n=%d reduced=%d)",
					tc, probe, eF, eR, n, r.Model.N())
			}
		}

		// (b) Ground energies agree with exhaustive search (7n ≤ 24 in
		// the paper's character units means n ≤ 24 binary variables here;
		// these models are at most 14).
		wantE, _ := bruteMin(t, m)
		_, redX := bruteMin(t, r.Model)
		full := r.Lift(redX)
		if e := m.Energy(full); !approxEq(e, wantE) {
			t.Fatalf("case %d: lifted minimizer energy %g != ground %g (n=%d stats=%+v)",
				tc, e, wantE, n, r.Stats)
		}
	}
}

// TestPresolveDeterministic: two runs over the same model must produce
// identical reductions — same survivors, same coefficients, same lift.
func TestPresolveDeterministic(t *testing.T) {
	rng := presolveRNG(12345)
	for tc := 0; tc < 25; tc++ {
		m := randomPresolveModel(&rng, 12)
		r1, r2 := Presolve(m), Presolve(m)
		if r1.Model.N() != r2.Model.N() || r1.Stats != r2.Stats {
			t.Fatalf("case %d: nondeterministic presolve: %+v vs %+v", tc, r1.Stats, r2.Stats)
		}
		for k := range r1.Vars {
			if r1.Vars[k] != r2.Vars[k] {
				t.Fatalf("case %d: survivor sets differ", tc)
			}
		}
		if r1.Model.Offset() != r2.Model.Offset() {
			t.Fatalf("case %d: offsets differ: %g vs %g", tc, r1.Model.Offset(), r2.Model.Offset())
		}
		for i := 0; i < r1.Model.N(); i++ {
			if r1.Model.Linear(i) != r2.Model.Linear(i) {
				t.Fatalf("case %d: linear %d differs", tc, i)
			}
		}
		x := make([]Bit, r1.Model.N())
		for i := range x {
			x[i] = Bit(rng.intn(2))
		}
		f1, f2 := r1.Lift(x), r2.Lift(x)
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("case %d: lifts differ at %d", tc, i)
			}
		}
	}
}

// TestPresolveStrongPersistencyPreservesGroundStates: with strict-domination
// rules (1 and 3), every full-model ground state must restrict to a
// reduced-model ground state — no minimizer is cut off (pendant ties are
// the only documented exception; this generator avoids exact pendant
// ties by construction of non-zero random fields).
func TestPresolveStrongPersistencyPreservesGroundStates(t *testing.T) {
	rng := presolveRNG(777)
	for tc := 0; tc < 60; tc++ {
		n := 2 + rng.intn(10)
		m := randomPresolveModel(&rng, n)
		r := Presolve(m)
		wantE, fullX := bruteMin(t, m)
		// Restrict the full minimizer to the survivors and check it is a
		// reduced-model minimizer too.
		red := make([]Bit, r.Model.N())
		for k, g := range r.Vars {
			red[k] = fullX[g]
		}
		redE := r.Model.Energy(red)
		_, bestRed := bruteMin(t, r.Model)
		if bestE := r.Model.Energy(bestRed); !approxEq(redE, bestE) && redE > bestE {
			// Allowed only via a pendant tie; re-deriving the ground
			// through Lift must still reach wantE.
			full := r.Lift(bestRed)
			if e := m.Energy(full); !approxEq(e, wantE) {
				t.Fatalf("case %d: ground state lost: restricted=%g best=%g full ground=%g",
					tc, redE, bestE, wantE)
			}
		}
	}
}

// TestReductionProjectInvertsLift pins Project as the left inverse of
// Lift on surviving variables, over random reducing models: for every
// reduced-space assignment x, Project(Lift(x)) == x, and projecting an
// arbitrary full assignment gathers exactly the surviving positions.
func TestReductionProjectInvertsLift(t *testing.T) {
	rng := presolveRNG(0xfeedface)
	for trial := 0; trial < 60; trial++ {
		m := randomPresolveModel(&rng, 4+rng.intn(10))
		red := Presolve(m)
		n := red.Model.N()
		for rep := 0; rep < 4; rep++ {
			x := make([]Bit, n)
			for i := range x {
				x[i] = Bit(rng.intn(2))
			}
			back := red.Project(red.Lift(x))
			for i := range x {
				if back[i] != x[i] {
					t.Fatalf("trial %d: Project(Lift(x))[%d] = %d, want %d", trial, i, back[i], x[i])
				}
			}
		}
		full := make([]Bit, red.FullN)
		for i := range full {
			full[i] = Bit(rng.intn(2))
		}
		proj := red.Project(full)
		for k, g := range red.Vars {
			if proj[k] != full[g] {
				t.Fatalf("trial %d: Project gathered full[%d] wrong", trial, g)
			}
		}
	}
}

// TestReductionProjectWidthPanics pins the width contract.
func TestReductionProjectWidthPanics(t *testing.T) {
	m := New(3)
	m.AddLinear(0, 5) // persistency-fixed to 0
	red := Presolve(m)
	defer func() {
		if recover() == nil {
			t.Error("Project accepted a wrong-width assignment")
		}
	}()
	red.Project(make([]Bit, red.FullN+1))
}

// TestReductionSubstituteRandom pins Substitute's identity: a second
// model over the same variables, rewritten through the reduction of the
// first, has m.Energy(Lift(x)) == Substitute(m).Energy(x) for every
// reduced x, whatever rules the reduction applied.
func TestReductionSubstituteRandom(t *testing.T) {
	rng := presolveRNG(0x5eed5eed)
	reduced := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.intn(12)
		red := Presolve(randomPresolveModel(&rng, n))
		if red.Reduced() {
			reduced++
		}
		other := randomPresolveModel(&rng, n)
		sub := red.Substitute(other)
		if sub.N() != red.Model.N() {
			t.Fatalf("trial %d: substituted model has %d variables, reduced has %d", trial, sub.N(), red.Model.N())
		}
		for probe := 0; probe < 8; probe++ {
			x := make([]Bit, sub.N())
			for i := range x {
				x[i] = Bit(rng.intn(2))
			}
			if eF, eS := other.Energy(red.Lift(x)), sub.Energy(x); !approxEq(eF, eS) {
				t.Fatalf("trial %d probe %d: E(Lift(x)) = %g, substituted E(x) = %g (stats %+v)", trial, probe, eF, eS, red.Stats)
			}
		}
	}
	if reduced < 100 {
		t.Fatalf("only %d of 200 reductions eliminated anything; the test exercises too few rules", reduced)
	}
	var none *Reduction
	if m := New(2); none.Substitute(m) != m {
		t.Error("a nil reduction must return the model unchanged")
	}
}
