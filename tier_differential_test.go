package qsmt_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/baseline"
	"qsmt/internal/harness"
)

// verdictClass names the three verdicts a solve can reach.
func verdictClass(err error) string {
	switch {
	case err == nil:
		return "sat"
	case errors.Is(err, qsmt.ErrUnsatisfiable):
		return "unsat"
	case errors.Is(err, qsmt.ErrNoModel):
		return "unknown"
	}
	return "error: " + err.Error()
}

// tierDifferentialCases draws one instance of every harness.Workload
// family and every extension family at each length 4–8, plus
// conjunctions the oracle proves unsatisfiable, the Table 1 rows, and
// 40 randomized Includes instances over {a, b}, satisfiable or not.
func tierDifferentialCases() []qsmt.Constraint {
	w := harness.NewWorkload(13)
	rng := rand.New(rand.NewSource(13))
	letter := func() byte { return byte('a' + rng.Intn(26)) }
	var cs []qsmt.Constraint
	for n := 4; n <= 8; n++ {
		for _, k := range harness.AllKinds() {
			cs = append(cs, w.Generate(k, n))
		}
		a, b := letter(), letter()
		for b == a {
			b = letter()
		}
		cs = append(cs,
			qsmt.PrefixOf(w.RandomWord(1+rng.Intn(n/2)), n),
			qsmt.SuffixOf(w.RandomWord(1+rng.Intn(n/2)), n),
			qsmt.CharAt(letter(), rng.Intn(n), n),
			qsmt.ToUpper(w.RandomWord(n)),
			qsmt.ToLower(strings.ToUpper(w.RandomWord(n))),
			qsmt.Periodic(2, n),
			qsmt.AnyString(n),
			qsmt.AvoidChars([]byte{letter(), letter()}, n),
			qsmt.And(qsmt.CharAt(a, 1, n), qsmt.CharAt(b, 1, n)),
			qsmt.And(qsmt.Palindrome(n), qsmt.CharAt(a, 0, n), qsmt.CharAt(b, n-1, n)),
		)
	}
	cs = append(cs,
		qsmt.Reverse("hello"),
		qsmt.Palindrome(6),
		qsmt.Regex("a[bc]+", 5),
		qsmt.Concat("hello", " world"),
		qsmt.IndexOf("hi", 2, 6),
	)
	ab := rand.New(rand.NewSource(47))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ab"[ab.Intn(2)]
		}
		return string(b)
	}
	for trial := 0; trial < 40; trial++ {
		hay := word(ab.Intn(6))
		cs = append(cs, qsmt.Includes(hay, word(ab.Intn(3))))
	}
	return cs
}

// TestTierPlanDifferential pits the default Solve (shard tier plan)
// against an explicit whole-model simulated annealer on every family:
// both must reach the same verdict class, agree with the CP oracle's
// label, and return checked witnesses, and the tier plan must solve
// every oracle-sat instance. Regex is the exception on the verdict
// class: its averaged class encoding leaves free bits whose
// combinations the whole-model annealer and the cross-product draws
// explore differently, so only its witnesses are pinned.
func TestTierPlanDifferential(t *testing.T) {
	oracle := &baseline.CPSolver{MaxNodes: 50_000}
	tiered := qsmt.NewSolver(&qsmt.Options{Seed: 7})
	whole := qsmt.NewSolver(&qsmt.Options{Seed: 7, Sampler: &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: 7}})
	for i, c := range tierDifferentialCases() {
		name := fmt.Sprintf("%d/%s/%d", i, c.Name(), c.NumVars())
		_, oerr := oracle.Solve(c)
		label := verdictClass(oerr)
		if oerr != nil && !errors.Is(oerr, qsmt.ErrUnsatisfiable) {
			label = "unknown"
		}
		res, err := tiered.Solve(c)
		got := verdictClass(err)
		if err == nil {
			if cerr := c.Check(res.Witness); cerr != nil {
				t.Errorf("%s: tiered witness fails Check: %v", name, cerr)
			}
			if label == "unsat" {
				t.Errorf("%s: tiered sat on an oracle-unsat instance", name)
			}
		}
		if got == "unsat" && label == "sat" {
			t.Errorf("%s: tiered unsat on an oracle-sat instance", name)
		}
		if c.Name() == "regex" {
			continue
		}
		if got != "sat" && label == "sat" {
			t.Errorf("%s: tiered %s on an oracle-sat instance", name, got)
		}
		_, werr := whole.Solve(c)
		if want := verdictClass(werr); got != want {
			t.Errorf("%s: tiered verdict %s (%v), whole-model %s (%v); oracle %s", name, got, err, want, werr, label)
		}
	}
}
