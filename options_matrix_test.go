package qsmt_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/baseline"
)

// TestOptionsMatrixDifferential runs every entry point under both
// solver configurations — the default sampler and a seeded custom
// simulated annealer — on small instances labelled by the CP oracle.
// Every sat witness must pass Check, no oracle-unsat instance may get a
// witness, and no oracle-sat instance may be reported unsat. SolveBatch
// also runs a few extra members beside the shared cases.
func TestOptionsMatrixDifferential(t *testing.T) {
	oracle := &baseline.CPSolver{MaxNodes: 50_000}
	cases := []qsmt.Constraint{
		qsmt.PrefixOf("ab", 3),
		qsmt.Palindrome(3),
		qsmt.AvoidChars([]byte("t"), 2),
		qsmt.Includes("abc", "c"),
		qsmt.Equality("hi"),
		qsmt.And(qsmt.Palindrome(4), qsmt.CharAt('x', 1, 4)),
		qsmt.Includes("ab", "abc"),
		qsmt.And(qsmt.CharAt('a', 0, 3), qsmt.CharAt('b', 0, 3)),
	}
	batchCases := append(cases[:len(cases):len(cases)],
		qsmt.Reverse("abc"),
		qsmt.Includes("abcabc", "bc"),
		qsmt.Concat("ab", "cd"),
	)
	labels := make([]string, len(batchCases))
	for i, c := range batchCases {
		_, err := oracle.Solve(c)
		labels[i] = verdictClass(err)
		if labels[i] != "sat" && labels[i] != "unsat" {
			t.Fatalf("%s: oracle cannot label the instance: %v", c.Name(), err)
		}
	}
	softs := []qsmt.SoftConstraint{qsmt.Soft(qsmt.MinLength(3), 2), qsmt.Soft(qsmt.CharAt('z', 1, 3), 0.5)}
	optimizeCases := []struct {
		hard  qsmt.Constraint
		label string
	}{
		{qsmt.CharAt('a', 0, 3), "sat"},
		{qsmt.And(qsmt.CharAt('a', 0, 3), qsmt.CharAt('b', 0, 3)), "unsat"},
	}

	ctx := context.Background()
	for _, custom := range []bool{false, true} {
		opts := &qsmt.Options{Seed: 3}
		if custom {
			opts.Sampler = &anneal.SimulatedAnnealer{Reads: 32, Sweeps: 300, Seed: 3}
		}
		cfg := fmt.Sprintf("custom=%v", custom)
		s := qsmt.NewSolver(opts)
		judge := func(entry string, c qsmt.Constraint, label string, ws []qsmt.Witness, err error) {
			name := fmt.Sprintf("%s %s %s", cfg, entry, c.Name())
			switch {
			case err == nil && label == "unsat":
				t.Errorf("%s: witness %v on an oracle-unsat instance", name, ws)
			case errors.Is(err, qsmt.ErrUnsatisfiable) && label == "sat":
				t.Errorf("%s: unsat on an oracle-sat instance", name)
			case err != nil && !errors.Is(err, qsmt.ErrUnsatisfiable) && !errors.Is(err, qsmt.ErrNoModel):
				t.Errorf("%s: unexpected error %v", name, err)
			}
			for _, w := range ws {
				if cerr := c.Check(w); cerr != nil {
					t.Errorf("%s: witness %v fails Check: %v", name, w, cerr)
				}
			}
		}
		witness := func(res *qsmt.Result) []qsmt.Witness {
			if res == nil {
				return nil
			}
			return []qsmt.Witness{res.Witness}
		}

		sess := s.NewIncrementalSession()
		for i, c := range cases {
			res, err := s.SolveContext(ctx, c)
			judge("solve", c, labels[i], witness(res), err)
			ws, err := s.EnumerateContext(ctx, c, 2)
			judge("enumerate", c, labels[i], ws, err)
			key := fmt.Sprint(i)
			for pass := 0; pass < 2; pass++ { // the second pass hits the memo
				res, err = sess.Solve(ctx, key, c)
				judge("incremental", c, labels[i], witness(res), err)
			}
		}
		br, err := s.SolveBatch(ctx, batchCases)
		if err != nil {
			t.Fatalf("%s: SolveBatch: %v", cfg, err)
		}
		for i, it := range br.Items {
			judge("batch", batchCases[i], labels[i], witness(it.Result), it.Err)
		}
		for _, oc := range optimizeCases {
			res, err := s.OptimizeContext(ctx, []qsmt.Constraint{oc.hard}, softs)
			judge("optimize", oc.hard, oc.label, witness(res), err)
		}
	}
}
