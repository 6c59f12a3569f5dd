// Incremental solving demo: SMT workflows re-check variations of a base
// constraint set — push a scope, add a hypothesis, check, pop, repeat —
// instead of rebuilding from scratch. This example drives the qsmt
// interpreter the way a program-analysis client would: a base input
// specification, then per-branch hypotheses explored with push/pop, with
// define-fun macros naming shared ground values.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"os"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/smtlib"
)

func main() {
	solver := qsmt.NewSolver(&qsmt.Options{
		Sampler: &anneal.SimulatedAnnealer{Reads: 32, Sweeps: 800, Seed: 31},
	})
	// Every check-sat is incremental: unchanged per-variable problems
	// replay from a verdict memo, and changed ones reuse unchanged QUBO
	// components across push/pop frames (warm-started from the parent
	// witness).
	interp := smtlib.NewInterpreter(solver, os.Stdout)

	// Base specification, shared by every query: a 6-character command
	// token and a named macro for the expected prefix.
	must(interp.Execute(`
		(set-logic QF_S)
		(define-fun expected-prefix () String "cmd")
		(declare-const token String)
		(assert (str.prefixof "cmd" token))
		(assert (= (str.len token) 6))
	`))

	// Hypothesis 1: can the token also end in the expected prefix? The
	// macro defined with the base specification is still in scope.
	fmt.Println("; hypothesis 1: token ends in expected-prefix")
	must(interp.Execute(`
		(push)
		(assert (str.suffixof expected-prefix token))
		(check-sat)
		(get-model)
		(pop)
	`))

	// Hypothesis 2: can the token's 4th character be '!'? (yes)
	fmt.Println("; hypothesis 2: token[3] = '!'")
	must(interp.Execute(`
		(push)
		(assert (= (str.at token 3) "!"))
		(check-sat)
		(pop)
	`))
	if st, _ := interp.Status(); st != smtlib.StatusSat {
		log.Fatalf("hypothesis 2 expected sat, got %s", st)
	}
	fmt.Printf("; model under hypothesis 2: token=%q\n", interp.Model()["token"].Str)

	// Hypothesis 3: a contradictory scope — the prefix pins token[0] to
	// 'c', so demanding 'z' there has no model. The annealer cannot
	// *prove* unsatisfiability (a QUBO always yields some bitstring), so
	// the honest verdict after the verify-retry budget is "unknown";
	// popping the scope recovers "sat".
	fmt.Println("; hypothesis 3 (contradiction): token[0] = 'z'")
	must(interp.Execute(`
		(push)
		(assert (= (str.at token 0) "z"))
		(check-sat)
		(pop)
		(check-sat)
	`))

	fmt.Println("; done — three hypotheses explored against one base scope")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
