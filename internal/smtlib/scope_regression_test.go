package smtlib

import (
	"strings"
	"testing"
)

// Regression: pop must truncate define-fun items along with declarations
// and assertions. Before the fix, frame recorded only nDecls/nAsserts, so
// a define-fun introduced inside a scope survived its pop and kept
// resolving in later models.
func TestPopRestoresDefines(t *testing.T) {
	it, out := testInterp(61)
	err := it.Execute(`
		(declare-const x String)
		(assert (= x "ok"))
		(push)
		(define-fun scoped () String "leaky")
		(pop)
		(check-sat)
		(get-model)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Model()["scoped"]; ok {
		t.Errorf("popped define-fun still resolves in the model: %v", it.Model())
	}
	if strings.Contains(out.String(), "define-fun scoped") {
		t.Errorf("popped define-fun leaked into get-model output:\n%s", out.String())
	}
}

// Regression: a define-fun popped out of scope must not shadow a live
// same-name definition. The scoped redefinition arrives via a second
// Execute call (parse-level duplicate detection is per-script), so only
// the interpreter's frame bookkeeping can retire it.
func TestPopRestoresShadowedDefine(t *testing.T) {
	it, _ := testInterp(62)
	if err := it.Execute(`
		(declare-const x String)
		(assert (= x "ok"))
		(define-fun tag () String "outer")
	`); err != nil {
		t.Fatal(err)
	}
	if err := it.Execute(`(push)(define-fun tag () String "inner")(pop)`); err != nil {
		t.Fatal(err)
	}
	if err := it.Execute(`(check-sat)`); err != nil {
		t.Fatal(err)
	}
	if v := it.Model()["tag"]; v.Str != "outer" {
		t.Errorf("tag = %q, want the outer definition %q (popped define shadows it)", v.Str, "outer")
	}
}

// Regression: an over-deep (pop n) must be atomic — it errors without
// unwinding any scope. Before the fix the loop popped frames one at a
// time and errored mid-way, leaving the interpreter partially unwound.
func TestOverDeepPopAtomic(t *testing.T) {
	it, _ := testInterp(63)
	if err := it.Execute(`
		(declare-const x String)
		(push)
		(declare-const y String)
		(assert (= y "scoped"))
	`); err != nil {
		t.Fatal(err)
	}
	if err := it.Execute(`(pop 2)`); err == nil {
		t.Fatal("over-deep pop accepted")
	}
	// The failed pop must not have unwound the one open scope: y is still
	// declared and its assertion still active.
	if err := it.Execute(`(check-sat)`); err != nil {
		t.Fatal(err)
	}
	if v := it.Model()["y"]; v.Str != "scoped" {
		t.Errorf("y = %q after failed over-deep pop; scope was partially unwound", v.Str)
	}
	// And the frame stack is intact: exactly one matching pop succeeds.
	if err := it.Execute(`(pop)`); err != nil {
		t.Errorf("matching pop after failed over-deep pop: %v", err)
	}
	if err := it.Execute(`(pop)`); err == nil {
		t.Error("second pop should fail: the over-deep pop must not have left extra frames")
	}
}

// Regression: a define-fun stays in scope for later Execute calls — the
// REPL runs every command as its own Execute. Each chunk used to parse
// with only its own macros, so the second chunk below failed with
// "unsupported constraint form for x: (str.prefixof p x)". A macro
// defined inside a popped scope is gone and can be defined again.
func TestDefineFunAcrossExecute(t *testing.T) {
	it, _ := testInterp(64)
	exec := func(src string) {
		t.Helper()
		if err := it.Execute(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	exec(`(declare-const x String)(define-fun p () String "ab")(assert (= (str.len x) 4))`)
	exec(`(assert (str.prefixof p x))(check-sat)`)
	if st, _ := it.Status(); st != StatusSat || !strings.HasPrefix(it.Model()["x"].Str, "ab") {
		t.Fatalf("status %s, x = %q; want sat with prefix \"ab\"", st, it.Model()["x"].Str)
	}

	exec(`(push)(define-fun q () String "zz")(pop)`)
	exec(`(push)`)
	if err := it.Execute(`(assert (str.suffixof q x))(check-sat)`); err == nil {
		t.Error("a macro from a popped scope still expands")
	}
	exec(`(pop)`)
	exec(`(define-fun q () String "cd")`)
	exec(`(assert (str.suffixof q x))(check-sat)`)
	if st, _ := it.Status(); st != StatusSat || it.Model()["x"].Str != "abcd" || it.Model()["q"].Str != "cd" {
		t.Fatalf("status %s, model %v; want x = \"abcd\", q = \"cd\"", st, it.Model())
	}

	// As within one script, a macro may not take a declared name.
	if err := it.Execute(`(define-fun x () String "zz")`); err == nil {
		t.Error("define-fun over the declared x accepted")
	}
}

// Regression: a declaration may not take a define-fun's name, in the
// same script or in a later Execute. Macros expand at parse time, so
// the declared variable was silently replaced by the macro body: the
// script below answered sat with p = "ab" in the model.
func TestDeclareAfterDefineFunRejected(t *testing.T) {
	it, _ := testInterp(65)
	if err := it.Execute(`(define-fun p () String "ab")(declare-const p String)(assert (= (str.len p) 2))(check-sat)(get-model)`); err == nil {
		t.Error("declare-const over the define-fun p accepted")
	}
	it, _ = testInterp(66)
	if err := it.Execute(`(define-fun q () String "ab")`); err != nil {
		t.Fatal(err)
	}
	if err := it.Execute(`(declare-fun q () String)`); err == nil {
		t.Error("declare-fun over the define-fun q of an earlier Execute accepted")
	}
}
