package smtlib

import (
	"io"
	"testing"

	"qsmt"
	"qsmt/internal/anneal"
)

// FuzzParseSExprs checks the reader never panics and that anything it
// accepts re-parses from its own rendering.
func FuzzParseSExprs(f *testing.F) {
	seeds := []string{
		`(assert (= x "hi"))`,
		`(set-logic QF_S) (declare-const x String) (check-sat)`,
		`"unterminated`,
		`((((`,
		`)`,
		`(echo "a""b")`,
		`(a |quoted sym| :kw 42)`,
		"; comment\n(exit)",
		"(\x00)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		nodes, err := ParseSExprs(src)
		if err != nil {
			return
		}
		for _, n := range nodes {
			round, err := ParseSExprs(n.String())
			if err != nil {
				t.Fatalf("accepted %q but rendering %q fails: %v", src, n.String(), err)
			}
			if len(round) != 1 {
				t.Fatalf("rendering %q re-parsed to %d nodes", n.String(), len(round))
			}
		}
	})
}

// FuzzParseScript checks the command-level parser never panics.
func FuzzParseScript(f *testing.F) {
	seeds := []string{
		`(declare-const x String)(assert (= x "a"))(check-sat)`,
		`(push 2)(pop)(pop)`,
		`(declare-fun f () Int)`,
		`(assert)`,
		`(wat)`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := ParseScript(src)
		if err != nil {
			return
		}
		// Anything parseable must also compile or fail cleanly.
		_, _ = Compile(sc)
	})
}

// longDigitRun reports a run of three or more ASCII digits: the fuzz
// interpreter skips such scripts so a fuzzed (= (str.len x) 99999999)
// cannot turn the no-panic property into an allocation stress test.
func longDigitRun(src string) bool {
	run := 0
	for i := 0; i < len(src); i++ {
		if src[i] >= '0' && src[i] <= '9' {
			if run++; run >= 3 {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}

// FuzzInterpreterBatch drives the full CLI path — parse, compile,
// incremental solve, print — on fuzzed scripts: whatever the front end
// accepts must execute without panicking (a crash takes down the whole
// session). The solver budget is tiny because the property is
// "no panic", not "sat".
func FuzzInterpreterBatch(f *testing.F) {
	seeds := []string{
		`(declare-const x String)(assert (= x "a"))(check-sat)(get-model)`,
		`(declare-const a String)(assert (= a "hi"))(declare-const b String)(assert (= (str.len b) 2))(check-sat)`,
		`(push 1)(declare-const x String)(assert (str.prefixof "a" x))(assert (= (str.len x) 2))(check-sat)(pop 1)(check-sat)`,
		`(set-logic QF_S)(echo "hello")(get-info :name)(check-sat)`,
		`(assert (= x "unbound"))(check-sat)`,
		`(declare-const i Int)(assert (= i (str.indexof "ab" "b" 0)))(check-sat)(get-model)`,
		`(declare-const x String)(assert (str.in_re x (re.+ (re.range "a" "c"))))(assert (= (str.len x) 2))(check-sat)`,
		`(check-sat)(check-sat)(exit)`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 300 || longDigitRun(src) {
			return // keep each execution cheap; parser coverage lives above
		}
		solver := qsmt.NewSolver(&qsmt.Options{
			Sampler:     &anneal.SimulatedAnnealer{Reads: 2, Sweeps: 16, Seed: 1},
			MaxAttempts: 1,
			Seed:        1,
		})
		it := NewInterpreter(solver, io.Discard)
		_ = it.Execute(src) // errors are fine; a panic is the bug
	})
}
