package smtlib

import (
	"strings"
	"testing"
)

func TestPushPopScoping(t *testing.T) {
	it, out := testInterp(21)
	err := it.Execute(`
		(declare-const x String)
		(assert (= x "base"))
		(check-sat)
		(push)
		(declare-const y String)
		(assert (= y "scoped"))
		(check-sat)
		(pop)
		(check-sat)
		(get-model)
	`)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Count(text, "sat") != 3 {
		t.Errorf("expected three sat verdicts:\n%s", text)
	}
	// After the pop, y is out of scope: no model entry.
	if strings.Contains(text, "define-fun y") {
		t.Errorf("popped declaration leaked into model:\n%s", text)
	}
	if !strings.Contains(text, `(define-fun x () String "base")`) {
		t.Errorf("base-scope model missing:\n%s", text)
	}
}

func TestPushPopRemovesConflict(t *testing.T) {
	// A conflicting ground fact inside a scope makes that check unsat;
	// popping restores sat.
	it, out := testInterp(22)
	err := it.Execute(`
		(push)
		(assert (= "a" "b"))
		(check-sat)
		(pop)
		(check-sat)
	`)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 || lines[0] != "unsat" || lines[1] != "sat" {
		t.Errorf("verdicts = %v, want [unsat sat]", lines)
	}
}

func TestPushPopMultiLevel(t *testing.T) {
	it, _ := testInterp(23)
	err := it.Execute(`
		(push 2)
		(declare-const x String)
		(assert (= x "v"))
		(pop 2)
		(check-sat)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Model()) != 0 {
		t.Errorf("model should be empty after pop 2: %v", it.Model())
	}
}

func TestPopWithoutPush(t *testing.T) {
	it, _ := testInterp(24)
	if err := it.Execute(`(pop)`); err == nil {
		t.Error("unbalanced pop accepted")
	}
}

func TestIncrementalAcrossExecuteCalls(t *testing.T) {
	it, _ := testInterp(25)
	if err := it.Execute(`(declare-const x String)`); err != nil {
		t.Fatal(err)
	}
	if err := it.Execute(`(assert (= x "inc"))`); err != nil {
		t.Fatal(err)
	}
	if err := it.Execute(`(check-sat)`); err != nil {
		t.Fatal(err)
	}
	if v := it.Model()["x"]; v.Str != "inc" {
		t.Errorf("x = %q", v.Str)
	}
	// Redeclaration across calls is still rejected.
	if err := it.Execute(`(declare-const x String)`); err == nil {
		t.Error("cross-call duplicate declaration accepted")
	}
}

func TestStructuralConjunctionScript(t *testing.T) {
	// prefix + suffix + charAt merged into one simultaneous QUBO.
	it, _ := testInterp(26)
	err := it.Execute(`
		(declare-const x String)
		(assert (str.prefixof "ab" x))
		(assert (str.suffixof "yz" x))
		(assert (= (str.at x 2) "m"))
		(assert (= (str.len x) 6))
		(check-sat)
	`)
	if err != nil {
		t.Fatal(err)
	}
	v := it.Model()["x"]
	if len(v.Str) != 6 || !strings.HasPrefix(v.Str, "ab") || !strings.HasSuffix(v.Str, "yz") || v.Str[2] != 'm' {
		t.Errorf("x = %q", v.Str)
	}
}

func TestPrefixSuffixScriptsIndividually(t *testing.T) {
	it, _ := testInterp(27)
	err := it.Execute(`
		(declare-const p String)
		(assert (str.prefixof "GET" p))
		(assert (= (str.len p) 6))
		(declare-const s String)
		(assert (str.suffixof ".go" s))
		(assert (= (str.len s) 6))
		(check-sat)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p := it.Model()["p"].Str; !strings.HasPrefix(p, "GET") {
		t.Errorf("p = %q", p)
	}
	if s := it.Model()["s"].Str; !strings.HasSuffix(s, ".go") {
		t.Errorf("s = %q", s)
	}
}

func TestCaseTransformScript(t *testing.T) {
	it, _ := testInterp(28)
	err := it.Execute(`
		(declare-const u String)
		(assert (= u (str.to_upper "hello")))
		(declare-const l String)
		(assert (= l (str.to_lower (str.rev "HELLO"))))
		(check-sat)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if u := it.Model()["u"].Str; u != "HELLO" {
		t.Errorf("u = %q", u)
	}
	if l := it.Model()["l"].Str; l != "olleh" {
		t.Errorf("l = %q", l)
	}
}

func TestDefinitionMixedWithStructuralRejected(t *testing.T) {
	it, _ := testInterp(29)
	err := it.Execute(`
		(declare-const x String)
		(assert (= x "abc"))
		(assert (str.prefixof "a" x))
		(assert (= (str.len x) 3))
		(check-sat)
	`)
	if err == nil {
		t.Error("definition + structural mix accepted")
	}
}

func TestCharAtRequiresSingleChar(t *testing.T) {
	it, _ := testInterp(30)
	err := it.Execute(`
		(declare-const x String)
		(assert (= (str.at x 0) "ab"))
		(assert (= (str.len x) 3))
		(check-sat)
	`)
	if err == nil {
		t.Error("multi-char str.at literal accepted")
	}
}

func TestEvalCaseOps(t *testing.T) {
	nodes, _ := ParseSExprs(`(str.to_upper (str.to_lower "MiXeD"))`)
	got, err := evalString(nodes[0])
	if err != nil || got != "MIXED" {
		t.Errorf("eval = %q, %v", got, err)
	}
}

func TestPushParseErrors(t *testing.T) {
	for _, src := range []string{`(push x)`, `(pop 1 2)`, `(push -1)`} {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q) succeeded", src)
		}
	}
}

func TestDefineFunMacros(t *testing.T) {
	it, out := testInterp(47)
	err := it.Execute(`
		(define-fun greeting () String "hello")
		(define-fun shout () String (str.to_upper greeting))
		(declare-const x String)
		(assert (= x (str.rev shout)))
		(check-sat)
		(get-model)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v := it.Model()["x"]; v.Str != "OLLEH" {
		t.Errorf("x = %q, want OLLEH", v.Str)
	}
	// Defined macros appear in the model with their concrete values.
	if v := it.Model()["shout"]; v.Str != "HELLO" {
		t.Errorf("shout = %q", v.Str)
	}
	if !strings.Contains(out.String(), `(define-fun greeting () String "hello")`) {
		t.Errorf("model output missing define:\n%s", out.String())
	}
}

func TestDefineFunIntMacro(t *testing.T) {
	it, _ := testInterp(48)
	err := it.Execute(`
		(define-fun pos () Int (str.indexof "hello" "l" 0))
		(declare-const i Int)
		(assert (= i (str.indexof "hello world" "world" 0)))
		(check-sat)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v := it.Model()["pos"]; v.Sort != SortInt || v.Int != 2 {
		t.Errorf("pos = %+v", v)
	}
}

func TestDefineFunErrors(t *testing.T) {
	bad := []string{
		`(define-fun f (x) String "a")`,                            // non-nullary
		`(define-fun f () Bool true)`,                              // unsupported sort
		`(declare-const f String)(define-fun f () String "a")`,     // collision
		`(define-fun f () String "a")(define-fun f () String "b")`, // dup
		`(define-fun f () String)`,                                 // missing body
	}
	for _, src := range bad {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q) succeeded", src)
		}
	}
}

func TestGetValue(t *testing.T) {
	it, out := testInterp(49)
	err := it.Execute(`
		(declare-const x String)
		(assert (= x "hello"))
		(check-sat)
		(get-value (x (str.len x) (str.rev x) (str.contains x "ell")))
	`)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{`(x "hello")`, `((str.len x) 5)`, `((str.rev x) "olleh")`, `((str.contains x "ell") true)`} {
		if !strings.Contains(text, want) {
			t.Errorf("get-value output missing %s:\n%s", want, text)
		}
	}
}

func TestGetValueErrors(t *testing.T) {
	it, _ := testInterp(50)
	if err := it.Execute(`(declare-const x String)(get-value (x))`); err == nil {
		t.Error("get-value before check-sat accepted")
	}
	if _, err := ParseScript(`(get-value ())`); err == nil {
		t.Error("empty get-value accepted")
	}
	if _, err := ParseScript(`(get-value x)`); err == nil {
		t.Error("unparenthesized get-value accepted")
	}
}

func TestGetInfo(t *testing.T) {
	it, out := testInterp(51)
	err := it.Execute(`
		(get-info :name)
		(get-info :version)
		(get-info :random-thing)
	`)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, `(:name "qsmt")`) || !strings.Contains(text, ":random-thing unsupported") {
		t.Errorf("get-info output:\n%s", text)
	}
	if _, err := ParseScript(`(get-info name)`); err == nil {
		t.Error("non-keyword get-info accepted")
	}
}

// TestParallelCheckSat solves four independent variables — a literal, a
// multi-stage pipeline, a structural constraint and an integer — in one
// check-sat.
func TestParallelCheckSat(t *testing.T) {
	it, _ := testInterp(52)
	err := it.Execute(`
		(declare-const a String)
		(assert (= a "aa"))
		(declare-const b String)
		(assert (= b (str.rev "bc")))
		(declare-const c String)
		(assert (str.prefixof "x" c))
		(assert (= (str.len c) 3))
		(declare-const i Int)
		(assert (= i (str.indexof "hello" "l" 0)))
		(check-sat)
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := it.Model()
	if m["a"].Str != "aa" || m["b"].Str != "cb" || m["i"].Int != 2 {
		t.Errorf("model = %v", m)
	}
	if len(m["c"].Str) != 3 || m["c"].Str[0] != 'x' {
		t.Errorf("c = %q", m["c"].Str)
	}
}

func TestParallelCheckSatUnsatDeterministic(t *testing.T) {
	// With one unsat problem among several, the verdict must be unsat on
	// every run.
	for trial := 0; trial < 3; trial++ {
		it, _ := testInterp(53)
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

func TestCheckSatAssuming(t *testing.T) {
	it, out := testInterp(54)
	err := it.Execute(`
		(declare-const x String)
		(assert (str.prefixof "ab" x))
		(assert (= (str.len x) 4))
		(check-sat-assuming ((str.suffixof "yz" x)))
		(check-sat)
	`)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := strings.Fields(out.String())
	if len(verdicts) != 2 || verdicts[0] != "sat" || verdicts[1] != "sat" {
		t.Fatalf("verdicts = %v", verdicts)
	}
	// Under the assumption, the model carried the suffix.
	// (The second plain check-sat may drop it.)
	if _, err := ParseScript(`(check-sat-assuming x)`); err == nil {
		t.Error("unparenthesized assumption list accepted")
	}
}

func TestCheckSatAssumingContradiction(t *testing.T) {
	it, out := testInterp(55)
	err := it.Execute(`
		(declare-const x String)
		(assert (= (str.at x 0) "a"))
		(assert (= (str.len x) 2))
		(check-sat-assuming ((= (str.at x 0) "b")))
		(check-sat)
	`)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := strings.Fields(out.String())
	if len(verdicts) != 2 || verdicts[0] == "sat" || verdicts[1] != "sat" {
		t.Fatalf("verdicts = %v (want non-sat then sat)", verdicts)
	}
}

func TestSolvePeriodicScriptless(t *testing.T) {
	// Periodic has no SMT-LIB surface form yet; exercised via the API in
	// the root package, this is a placeholder guarding the constant.
	if CmdCheckSatAssuming == CmdCheckSat {
		t.Fatal("command kinds collide")
	}
}
