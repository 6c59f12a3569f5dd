package qsmt

import (
	"math"
	"strings"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/core"
	"qsmt/internal/qubo"
)

// Differential validation of the optimize mode: on models small enough
// to enumerate, the annealed Optimize must land on the same weighted
// objective value as brute force over every feasible witness — and under
// adversarial soft weights large enough to "pay for" a hard violation
// in the QUBO landscape, the returned witness must still satisfy every
// hard constraint (feasibility is enforced by the verify loop, never by
// the penalty weight M).

// bruteForceObjective enumerates every assignment of the hard model's
// variables, keeps the ones whose decoded witness passes the hard
// Check, and returns the minimum weighted soft objective among them.
func bruteForceObjective(t *testing.T, hard Constraint, softs []SoftConstraint) float64 {
	t.Helper()
	m, err := hard.BuildModel()
	if err != nil {
		t.Fatalf("building %s: %v", hard.Name(), err)
	}
	n := m.N()
	if n > 22 {
		t.Fatalf("%s has %d vars — too large to enumerate", hard.Name(), n)
	}
	best := math.Inf(1)
	x := make([]qubo.Bit, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := range x {
			x[i] = qubo.Bit((mask >> i) & 1)
		}
		w, err := hard.Decode(x)
		if err != nil || hard.Check(w) != nil {
			continue
		}
		obj := 0.0
		for _, sc := range softs {
			if o, graded := sc.C.(core.Objective); graded {
				v, err := o.Value(w)
				if err != nil {
					t.Fatalf("grading %q under %s: %v", w.Str, sc.C.Name(), err)
				}
				obj += sc.Weight * v
			} else if sc.C.Check(w) != nil {
				obj += sc.Weight
			}
		}
		if obj < best {
			best = obj
		}
	}
	if math.IsInf(best, 1) {
		t.Fatalf("%s has no feasible witness at all", hard.Name())
	}
	return best
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name string
		hard Constraint
		soft []SoftConstraint
	}{
		{
			name: "min-length under prefix",
			hard: PrefixOf("a", 2),
			soft: []SoftConstraint{Soft(MinLength(2), 1)},
		},
		{
			name: "min-edits under suffix",
			hard: SuffixOf("b", 2),
			soft: []SoftConstraint{Soft(MinEditsFrom("ab"), 1)},
		},
		{
			name: "weighted mix of graded and plain softs",
			hard: CharAt('a', 0, 2),
			soft: []SoftConstraint{
				Soft(MinLength(2), 2),
				Soft(CharAt('z', 1, 2), 0.5),
			},
		},
		{
			name: "conflicting plain softs",
			hard: CharAt('a', 0, 1),
			soft: []SoftConstraint{
				Soft(CharAt('b', 0, 1), 3),
				Soft(CharAt('a', 0, 1), 1),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := bruteForceObjective(t, tc.hard, tc.soft)
			solver := NewSolver(&Options{Seed: 41})
			res, err := solver.Optimize([]Constraint{tc.hard}, tc.soft)
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			if err := tc.hard.Check(res.Witness); err != nil {
				t.Fatalf("witness %q violates the hard constraint: %v", res.Witness.Str, err)
			}
			if math.Abs(res.Objective-want) > 1e-6 {
				t.Errorf("objective = %v (witness %q), brute force says %v",
					res.Objective, res.Witness.Str, want)
			}
		})
	}
}

// TestOptimizeHardInviolableUnderAdversarialWeights cranks the soft
// weight far beyond the hard model's penalty gap: in raw QUBO energy a
// violated hard constraint would now be cheaper than an unsatisfied
// soft, so any candidate the annealer is tempted toward is infeasible.
// The verify loop must reject them all and return a feasible witness
// with the soft reported as violated — never a hard-violating one.
func TestOptimizeHardInviolableUnderAdversarialWeights(t *testing.T) {
	hard := CharAt('a', 0, 2)
	soft := []SoftConstraint{Soft(CharAt('b', 0, 2), 1e9)}
	solver := NewSolver(&Options{Seed: 43})
	res, err := solver.Optimize([]Constraint{hard}, soft)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := hard.Check(res.Witness); err != nil {
		t.Fatalf("adversarial weight bought a hard violation: witness %q: %v", res.Witness.Str, err)
	}
	if res.Witness.Str[0] != 'a' {
		t.Fatalf("witness = %q, want first char 'a'", res.Witness.Str)
	}
	// The contradictory soft is necessarily violated, at full weight.
	if math.Abs(res.Objective-1e9) > 1 {
		t.Errorf("objective = %v, want ~1e9 (the violated soft's weight)", res.Objective)
	}
	if res.ObjectiveOptimal {
		t.Error("ObjectiveOptimal = true, but the incumbent sits above the lower bound 0")
	}
}

// TestOptimizeProvenOptimalFlag: when the incumbent reaches the lower
// bound (every soft satisfied / zero objective), the result must say so.
func TestOptimizeProvenOptimalFlag(t *testing.T) {
	res, err := NewSolver(&Options{Seed: 47}).Optimize(
		[]Constraint{SuffixOf("b", 2)},
		[]SoftConstraint{Soft(MinEditsFrom("ab"), 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Witness.Str != "ab" {
		t.Errorf("witness = %q, want \"ab\" (zero edits from the hint)", res.Witness.Str)
	}
	if !res.ObjectiveOptimal || res.Objective > 1e-9 {
		t.Errorf("Objective = %v, ObjectiveOptimal = %v; want proved-optimal 0",
			res.Objective, res.ObjectiveOptimal)
	}
}

// TestLexStacksWeights: one unit of a higher-priority objective must
// outweigh the entire span of everything below it.
func TestLexStacksWeights(t *testing.T) {
	softs, err := Lex(Soft(MinLength(3), 1), Soft(MinEditsFrom("xyz"), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(softs) != 2 {
		t.Fatalf("len = %d", len(softs))
	}
	lower, _ := softs[1].C.(core.Objective)
	if softs[0].Weight <= softs[1].Weight*lower.Span() {
		t.Errorf("primary weight %v does not dominate secondary span %v×%v",
			softs[0].Weight, softs[1].Weight, lower.Span())
	}
	if _, err := Lex(Soft(CharAt('a', 0, 1), 1)); err == nil {
		t.Error("Lex accepted a plain (ungraded) soft constraint")
	}
}

// TestOptimizeStyleBiasStaysUnscaled: the printable style bias of a
// hard model merges at weight 1 even where it shares coefficients with
// checked penalty terms. Palindrome's mirror penalty and its bias share
// the linear terms of bits 0 and 1 of every position; the old split by
// magnitude scaled the bias there by the hard weight M, and MinLength
// then lost to it: Optimize returned a full-length printable palindrome
// (objective n − 1 or n) where the all-NUL frame has objective 0, on the
// tier plan and on the whole model alike.
func TestOptimizeStyleBiasStaysUnscaled(t *testing.T) {
	for n := 4; n <= 6; n++ {
		for _, cfg := range []struct {
			name string
			opts *Options
		}{
			{"tier plan", &Options{Seed: 3}},
			{"whole model", &Options{Seed: 3, Sampler: &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: 3}}},
		} {
			res, err := NewSolver(cfg.opts).Optimize([]Constraint{Palindrome(n)}, []SoftConstraint{Soft(MinLength(n), 1)})
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, cfg.name, err)
			}
			if res.Objective != 0 || res.Witness.Str != strings.Repeat("\x00", n) {
				t.Errorf("n=%d %s: objective %v (witness %q), want 0 (the all-NUL frame)", n, cfg.name, res.Objective, res.Witness.Str)
			}
		}
	}
}
