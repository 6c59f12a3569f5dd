package qsmt

// Differential acceptance suite for the exact tier. The solver used to
// race a portfolio of arms per shard, and these tests kept the race
// from changing verdicts; the race's measured effect was "enumerate
// when small", which the static tier rule now does directly. The same
// checks now pit the default tier plan against the plan with the exact
// tier switched off (ExactShardVars: -1, every shard to the sampler) at
// the same seed: verdicts, witness validity and ground energies must
// agree, on the Table 1 rows and on randomized inputs.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"qsmt/internal/strtheory"
)

// tieredAndSampled returns the default solver and the same solver with
// the exact tier off, both at seed.
func tieredAndSampled(seed int64) (tiered, sampled *Solver) {
	return NewSolver(&Options{Seed: seed}), NewSolver(&Options{Seed: seed, ExactShardVars: -1})
}

func TestPortfolioDifferentialTable1(t *testing.T) {
	for _, c := range table1Constraints() {
		tiered, sampled := tieredAndSampled(5)
		rt, err := tiered.Solve(c)
		if err != nil {
			t.Fatalf("%s: tiered solve: %v", c.Name(), err)
		}
		rs, err := sampled.Solve(c)
		if err != nil {
			t.Fatalf("%s: sampler-only solve: %v", c.Name(), err)
		}
		if diff := rt.Energy - rs.Energy; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: tiered energy %g != sampler-only energy %g",
				c.Name(), rt.Energy, rs.Energy)
		}
		if err := c.Check(rt.Witness); err != nil {
			t.Errorf("%s: tiered witness fails re-check: %v", c.Name(), err)
		}
	}
}

// Randomized Includes instances, both satisfiable and not: the tiered
// solver's verdict must track the reference semantics exactly, and must
// coincide with the sampler-only solver's verdict on every instance.
func TestPortfolioDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tiered, sampled := tieredAndSampled(53)
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		return string(b)
	}
	for trial := 0; trial < 40; trial++ {
		hay := randStr(rng.Intn(6))
		needle := randStr(rng.Intn(3))
		c := Includes(hay, needle)
		want := strtheory.IndexOf(hay, needle, 0)

		rt, errt := tiered.Solve(c)
		rs, errs := sampled.Solve(c)
		if (errt == nil) != (errs == nil) {
			t.Errorf("Includes(%q, %q): verdicts diverge: tiered err=%v, sampler-only err=%v",
				hay, needle, errt, errs)
			continue
		}
		if want < 0 {
			if errt == nil {
				t.Errorf("Includes(%q, %q): tiered solved with index %d, reference says unsat",
					hay, needle, rt.Witness.Index)
			} else if !errors.Is(errt, ErrUnsatisfiable) && !errors.Is(errt, ErrNoModel) {
				t.Errorf("Includes(%q, %q): unexpected tiered error %v", hay, needle, errt)
			}
			continue
		}
		if errt != nil {
			t.Errorf("Includes(%q, %q): tiered failed: %v (reference index %d)",
				hay, needle, errt, want)
			continue
		}
		if rt.Witness.Index != want || rs.Witness.Index != want {
			t.Errorf("Includes(%q, %q): indexes diverge: tiered %d, sampler-only %d, reference %d",
				hay, needle, rt.Witness.Index, rs.Witness.Index, want)
		}
	}
}

// SolveBatch on the tier plan must agree with the sampler-only batch on
// every verdict.
func TestPortfolioBatchDifferential(t *testing.T) {
	cs := []Constraint{
		Equality("hi"),
		Reverse("abc"),
		Includes("abcabc", "bc"),
		Concat("ab", "cd"),
		Includes("ab", "abc"), // unsat
	}
	tiered, sampled := tieredAndSampled(17)
	rt, err := tiered.SolveBatch(context.Background(), cs)
	if err != nil {
		t.Fatalf("tiered batch: %v", err)
	}
	rs, err := sampled.SolveBatch(context.Background(), cs)
	if err != nil {
		t.Fatalf("sampler-only batch: %v", err)
	}
	for i := range cs {
		sat1, sat2 := rt.Items[i].Err == nil, rs.Items[i].Err == nil
		if sat1 != sat2 {
			t.Errorf("%s: batch verdicts diverge: tiered err=%v, sampler-only err=%v",
				cs[i].Name(), rt.Items[i].Err, rs.Items[i].Err)
		}
		if sat1 {
			if err := cs[i].Check(rt.Items[i].Result.Witness); err != nil {
				t.Errorf("%s: tiered batch witness fails re-check: %v", cs[i].Name(), err)
			}
		}
	}
}
