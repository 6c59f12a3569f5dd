package smtlib

import (
	"strings"
	"testing"
)

func mustScript(t *testing.T, src string) *Script {
	t.Helper()
	sc, err := ParseScript(src)
	if err != nil {
		t.Fatalf("ParseScript: %v", err)
	}
	return sc
}

func mustCompile(t *testing.T, src string) *Compilation {
	t.Helper()
	comp, err := Compile(mustScript(t, src))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return comp
}

func TestParseScriptCommands(t *testing.T) {
	sc := mustScript(t, `
		(set-logic QF_S)
		(set-info :status sat)
		(declare-const x String)
		(declare-fun y () Int)
		(assert (= x "a"))
		(check-sat)
		(get-model)
		(echo "done")
		(exit)
	`)
	if sc.Logic != "QF_S" {
		t.Errorf("logic = %q", sc.Logic)
	}
	if len(sc.Decls) != 2 || sc.Decls[0].Sort != SortString || sc.Decls[1].Sort != SortInt {
		t.Errorf("decls = %+v", sc.Decls)
	}
	if len(sc.Asserts) != 1 || len(sc.Commands) != 4 {
		t.Errorf("asserts=%d commands=%d", len(sc.Asserts), len(sc.Commands))
	}
}

func TestParseScriptErrors(t *testing.T) {
	bad := []string{
		`(declare-const x Bool)`,
		`(declare-const x String) (declare-const x String)`,
		`(declare-fun f (Int) String)`,
		`(frobnicate)`,
		`(assert)`,
		`(set-logic)`,
		`(echo 42)`,
		`42`,
	}
	for _, src := range bad {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q) succeeded", src)
		}
	}
}

func TestCompileEqualityDefinition(t *testing.T) {
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (= x "hello"))
	`)
	if len(comp.Problems) != 1 {
		t.Fatalf("problems = %d", len(comp.Problems))
	}
	p := comp.Problems[0]
	if p.Var != "x" || p.Pipeline == nil || p.Pipeline.Len() != 1 {
		t.Errorf("problem = %+v", p)
	}
}

func TestCompileReversedOrientation(t *testing.T) {
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (= "hello" x))
	`)
	if comp.Problems[0].Pipeline == nil {
		t.Error("reversed (= lit x) not recognized")
	}
}

func TestCompileNestedPipeline(t *testing.T) {
	// Table 1 row 1 as SMT-LIB: x = replace(rev("hello"), 'e', 'a').
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (= x (str.replace (str.rev "hello") "e" "a")))
	`)
	p := comp.Problems[0]
	if p.Pipeline == nil || p.Pipeline.Len() != 3 { // equality + reverse + replace
		t.Fatalf("pipeline len = %d, want 3", p.Pipeline.Len())
	}
}

func TestCompileConcatForms(t *testing.T) {
	// All-literal concatenation: single generator.
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (= x (str.++ "a" "b" "c")))
	`)
	if comp.Problems[0].Pipeline.Len() != 1 {
		t.Errorf("literal concat pipeline len = %d", comp.Problems[0].Pipeline.Len())
	}
	// One nested operand with literals both sides.
	comp = mustCompile(t, `
		(declare-const x String)
		(assert (= x (str.++ "pre-" (str.rev "ab") "-post")))
	`)
	if l := comp.Problems[0].Pipeline.Len(); l != 4 { // eq + reverse + append + prepend
		t.Errorf("nested concat pipeline len = %d, want 4", l)
	}
	// Two nested operands: unsupported.
	if _, err := Compile(mustScript(t, `
		(declare-const x String)
		(assert (= x (str.++ (str.rev "a") (str.rev "b"))))
	`)); err == nil {
		t.Error("two nested concat operands accepted")
	}
}

func TestCompilePalindrome(t *testing.T) {
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (= x (str.rev x)))
		(assert (= (str.len x) 6))
	`)
	p := comp.Problems[0]
	if p.Pipeline == nil || p.Pipeline.Len() != 1 {
		t.Fatalf("problem = %+v", p)
	}
	// Missing length must error.
	if _, err := Compile(mustScript(t, `
		(declare-const x String)
		(assert (= x (str.rev x)))
	`)); err == nil || !strings.Contains(err.Error(), "str.len") {
		t.Errorf("palindrome without length: %v", err)
	}
}

func TestCompileContains(t *testing.T) {
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (str.contains x "cat"))
		(assert (= 4 (str.len x)))
	`)
	if comp.Problems[0].Pipeline == nil {
		t.Fatal("contains not compiled")
	}
}

func TestCompileSubstrIndexOf(t *testing.T) {
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (= (str.substr x 2 2) "hi"))
		(assert (= (str.len x) 6))
	`)
	if comp.Problems[0].Pipeline == nil {
		t.Fatal("substr not compiled")
	}
	// Length mismatch between extraction and literal.
	if _, err := Compile(mustScript(t, `
		(declare-const x String)
		(assert (= (str.substr x 2 3) "hi"))
		(assert (= (str.len x) 6))
	`)); err == nil {
		t.Error("substr length mismatch accepted")
	}
}

func TestCompileRegex(t *testing.T) {
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (str.in_re x (re.++ (str.to_re "a") (re.+ (re.union (str.to_re "b") (str.to_re "c"))))))
		(assert (= (str.len x) 5))
	`)
	if comp.Problems[0].Pipeline == nil {
		t.Fatal("in_re not compiled")
	}
}

func TestCompileIncludes(t *testing.T) {
	comp := mustCompile(t, `
		(declare-const i Int)
		(assert (= i (str.indexof "hello world" "o w" 0)))
	`)
	p := comp.Problems[0]
	if p.Single == nil || p.Sort != SortInt {
		t.Fatalf("problem = %+v", p)
	}
	// Nonzero offset unsupported.
	if _, err := Compile(mustScript(t, `
		(declare-const i Int)
		(assert (= i (str.indexof "hello" "l" 1)))
	`)); err == nil {
		t.Error("nonzero indexof offset accepted")
	}
}

func TestCompileLengthOnly(t *testing.T) {
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (= (str.len x) 4))
	`)
	if comp.Problems[0].Pipeline == nil {
		t.Fatal("length-only variable not compiled")
	}
}

func TestCompileGroundAssertions(t *testing.T) {
	comp := mustCompile(t, `
		(declare-const x String)
		(assert (= x "a"))
		(assert (= (str.++ "a" "b") "ab"))
		(assert (str.contains "hello" "ell"))
	`)
	if len(comp.GroundFalse) != 0 {
		t.Errorf("true ground facts flagged: %v", comp.GroundFalse)
	}
	comp = mustCompile(t, `
		(assert (= "a" "b"))
	`)
	if len(comp.GroundFalse) != 1 {
		t.Errorf("false ground fact not flagged")
	}
}

func TestCompileRejectsMultiVariable(t *testing.T) {
	if _, err := Compile(mustScript(t, `
		(declare-const x String)
		(declare-const y String)
		(assert (= x y))
	`)); err == nil {
		t.Error("multi-variable assertion accepted")
	}
}

// An assertion over a symbol the script never declared names the
// symbol, wherever it sits: alone, beside a declared variable, or in a
// soft term; ground evaluation used to report it as a term it cannot
// evaluate as an integer or string.
func TestCompileUndeclaredSymbolNamed(t *testing.T) {
	for _, src := range []string{
		`(assert (= x "a"))`,
		`(declare-const y String)(assert (= (str.len x) 2))`,
		`(declare-const y String)(assert (= y (str.++ x "a")))`,
		`(declare-const y String)(assert (= (str.len y) 2))(assert-soft (= y x))`,
	} {
		_, err := Compile(mustScript(t, src))
		if err == nil || !strings.Contains(err.Error(), "undeclared symbol x") {
			t.Errorf("%s: err = %v, want one naming the undeclared symbol x", src, err)
		}
	}
	// Theory constants and declared variables are not undeclared.
	mustCompile(t, `(declare-const y String)(assert (= (str.len y) 2))(assert true)`)
}

func TestCompileConflictingLengths(t *testing.T) {
	if _, err := Compile(mustScript(t, `
		(declare-const x String)
		(assert (= (str.len x) 3))
		(assert (= (str.len x) 4))
	`)); err == nil {
		t.Error("conflicting lengths accepted")
	}
}

func TestCompileMultiplePrimaryConstraints(t *testing.T) {
	if _, err := Compile(mustScript(t, `
		(declare-const x String)
		(assert (= x "a"))
		(assert (str.contains x "b"))
	`)); err == nil {
		t.Error("two primary constraints accepted")
	}
}

func TestCompileMultiCharReplaceRejected(t *testing.T) {
	if _, err := Compile(mustScript(t, `
		(declare-const x String)
		(assert (= x (str.replace "hello" "ll" "LL")))
	`)); err == nil {
		t.Error("multi-character replace accepted (QUBO encoding is per-character)")
	}
}

func TestRegexToPattern(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`(str.to_re "abc")`, "abc"},
		{`(re.+ (str.to_re "a"))`, "a+"},
		{`(re.++ (str.to_re "a") (re.+ (re.union (str.to_re "b") (str.to_re "c"))))`, "a[bc]+"},
		{`(re.union (str.to_re "x") (re.range "a" "c"))`, "[xa-c]"},
		{`(re.range "0" "9")`, "[0-9]"},
		{`(str.to_re "a+b")`, `a\+b`},
	}
	for _, tc := range cases {
		nodes, err := ParseSExprs(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := regexToPattern(nodes[0])
		if err != nil {
			t.Errorf("regexToPattern(%s): %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("regexToPattern(%s) = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestRegexToPatternErrors(t *testing.T) {
	bad := []string{
		`(re.+ (str.to_re "ab"))`,        // plus of multi-char literal
		`(re.union (str.to_re "ab"))`,    // multi-char union member
		`(re.comp (str.to_re "a"))`,      // unsupported operator
		`(str.to_re "")`,                 // empty literal
		`(re.+ (re.++ (str.to_re "a")))`, // plus of concatenation
		`(re.range "ab" "c")`,            // multi-char range bound
		`x`,                              // not a regex term
	}
	for _, src := range bad {
		nodes, err := ParseSExprs(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := regexToPattern(nodes[0]); err == nil {
			t.Errorf("regexToPattern(%s) succeeded", src)
		}
	}
}

func TestEvalGround(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`(str.++ "a" (str.rev "bc"))`, "acb"},
		{`(str.replace "hello" "l" "L")`, "heLlo"},
		{`(str.replace_all "hello" "l" "L")`, "heLLo"},
		{`(str.substr "hello" 1 3)`, "ell"},
		{`(str.at "hello" 1)`, "e"},
	}
	for _, tc := range cases {
		nodes, _ := ParseSExprs(tc.src)
		got, err := evalString(nodes[0])
		if err != nil {
			t.Errorf("evalString(%s): %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("evalString(%s) = %q, want %q", tc.src, got, tc.want)
		}
	}
	intCases := []struct {
		src  string
		want int
	}{
		{`(str.len "hello")`, 5},
		{`(str.indexof "hello" "l" 0)`, 2},
		{`(+ 1 2 3)`, 6},
		{`(- 5 2)`, 3},
		{`(- 4)`, -4},
	}
	for _, tc := range intCases {
		nodes, _ := ParseSExprs(tc.src)
		got, err := evalInt(nodes[0])
		if err != nil {
			t.Errorf("evalInt(%s): %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("evalInt(%s) = %d, want %d", tc.src, got, tc.want)
		}
	}
	boolCases := []struct {
		src  string
		want bool
	}{
		{`(str.prefixof "he" "hello")`, true},
		{`(str.suffixof "lo" "hello")`, true},
		{`(not (str.contains "a" "b"))`, true},
		{`(and true (= 1 1))`, true},
		{`(or false (= "a" "b"))`, false},
		{`(= (str.len "ab") 2)`, true},
	}
	for _, tc := range boolCases {
		nodes, _ := ParseSExprs(tc.src)
		got, err := evalBool(nodes[0])
		if err != nil {
			t.Errorf("evalBool(%s): %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("evalBool(%s) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	for _, src := range []string{
		`(str.rev)`, `(str.substr "a" "b" 1)`, `(str.unknown "a")`,
	} {
		nodes, _ := ParseSExprs(src)
		if _, err := evalString(nodes[0]); err == nil {
			t.Errorf("evalString(%s) succeeded", src)
		}
	}
	nodes, _ := ParseSExprs(`(wat 1)`)
	if _, err := evalInt(nodes[0]); err == nil {
		t.Error("evalInt of unknown op succeeded")
	}
	if _, err := evalBool(nodes[0]); err == nil {
		t.Error("evalBool of unknown op succeeded")
	}
}
