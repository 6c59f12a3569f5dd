package smtlib

import (
	"strings"
	"testing"

	"qsmt"
	"qsmt/internal/qubo"
)

// A mixed multi-variable check-sat on the one path: single-stage
// pipelines and the integer problem solve through the incremental
// session, the multi-stage pipeline (b, with its str.rev dependency on a
// literal) keeps the stage-by-stage run, all against one compile cache.
func TestBatchCheckSat(t *testing.T) {
	it, out := testInterp(61)
	it.Solver = qsmt.NewSolver(&qsmt.Options{
		Seed:         61,
		CompileCache: qubo.NewCache(64),
	})
	err := it.Execute(`
		(declare-const a String)
		(assert (= a "batch"))
		(declare-const b String)
		(assert (= b (str.rev "bc")))
		(declare-const c String)
		(assert (str.suffixof "z" c))
		(assert (= (str.len c) 3))
		(declare-const i Int)
		(assert (= i (str.indexof "hello" "l" 0)))
		(check-sat)
		(get-model)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if st, ran := it.Status(); !ran || st != StatusSat {
		t.Fatalf("status = %s (ran=%v)", st, ran)
	}
	m := it.Model()
	if m["a"].Str != "batch" || m["b"].Str != "cb" || m["i"].Int != 2 {
		t.Errorf("model = %v", m)
	}
	if len(m["c"].Str) != 3 || m["c"].Str[2] != 'z' {
		t.Errorf("c = %q", m["c"].Str)
	}
	if !strings.Contains(out.String(), "sat") {
		t.Errorf("output:\n%s", out.String())
	}
}

// An unsat member among several variables must turn the whole verdict
// unsat, deterministically across runs.
func TestBatchCheckSatUnsat(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		it, _ := testInterp(62)
		err := it.Execute(`
			(declare-const a String)
			(assert (= a "ok"))
			(declare-const b String)
			(assert (str.contains b "toolong"))
			(assert (= (str.len b) 2))
			(check-sat)
		`)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := it.Status(); st != StatusUnsat {
			t.Fatalf("trial %d: status = %s", trial, st)
		}
	}
}
