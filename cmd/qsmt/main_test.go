package main

import (
	"strings"
	"testing"
	"time"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/smtlib"
)

func TestBalance(t *testing.T) {
	cases := []struct {
		line string
		want int
	}{
		{"(assert (= x 1))", 0},
		{"(assert", 1},
		{"(a (b", 2},
		{"))", -2},
		{`(echo ")")`, 0},     // paren inside a string literal
		{`(echo "(((")`, 0},   // several parens inside a literal
		{"(a ; comment )", 1}, // comment hides the closer
		{"; pure comment (((", 0},
		{"", 0},
	}
	for _, tc := range cases {
		if got := balance(tc.line); got != tc.want {
			t.Errorf("balance(%q) = %d, want %d", tc.line, got, tc.want)
		}
	}
}

// TestSampleTimeoutAnswersUnknown: a sampling job that outruns
// -sample-timeout makes its check-sat answer unknown, and the script
// goes on. The indexof model is one connected component above the exact
// tier, so it reaches the (deliberately slow) sampler; the equality
// after it (the indexof scope popped) presolves away and never samples.
// The whole script used to abort with exit 1 at the first check-sat.
func TestSampleTimeoutAnswersUnknown(t *testing.T) {
	slow := &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 200_000, Seed: 1}
	solver := qsmt.NewSolver(&qsmt.Options{Sampler: &deadlineSampler{base: slow, timeout: time.Millisecond}})
	var out strings.Builder
	err := smtlib.NewInterpreter(solver, &out).Execute(`
		(push)
		(declare-const i Int)
		(assert (= i (str.indexof "the quick brown fox jumps over the lazy dog" "lazy" 0)))
		(check-sat)
		(pop)
		(declare-const s String)
		(assert (= s "hi"))
		(check-sat)
	`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got := out.String(); got != "unknown\nsat\n" {
		t.Errorf("output %q, want unknown then sat", got)
	}
}
