package smtlib

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Differential tests for incremental reuse: the same script (or the same
// interactive DFS) replayed through a plain interpreter — one whose
// incremental caches are reset before every check-sat, so nothing is
// reused across check-sats — and a reusing one must produce identical
// check-sat verdict sequences, and every sat model the reusing path
// reports must satisfy the assertions live at that check-sat. The two
// interpreters share sampler configuration and seed, so any divergence
// is a reuse bug, not annealing noise.

// verdictLines extracts the check-sat verdict lines from interpreter
// output, in order.
func verdictLines(out string) []string {
	var vs []string
	for _, line := range strings.Split(out, "\n") {
		switch strings.TrimSpace(line) {
		case "sat", "unsat", "unknown":
			vs = append(vs, strings.TrimSpace(line))
		}
	}
	return vs
}

// executeResetting runs src one top-level command per Execute call,
// dropping the interpreter's incremental caches before each, so no
// check-sat reuses the work of an earlier one.
func executeResetting(it *Interpreter, src string) error {
	nodes, err := ParseSExprs(src)
	if err != nil {
		return err
	}
	for _, n := range nodes {
		if n.Head() == "exit" {
			return nil
		}
		it.ResetIncremental()
		if err := it.Execute(n.String()); err != nil {
			return err
		}
	}
	return nil
}

// TestIncrementalCorpusDifferential replays every testdata benchmark
// through a plain and an incremental interpreter and requires identical
// verdict sequences, plus a valid final model whenever the incremental
// run ends sat.
func TestIncrementalCorpusDifferential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.smt2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}

			plain, plainOut := testInterp(77)
			if err := executeResetting(plain, string(src)); err != nil {
				t.Fatalf("plain execute: %v", err)
			}
			incr, incrOut := testInterp(77)
			if err := incr.Execute(string(src)); err != nil {
				t.Fatalf("incremental execute: %v", err)
			}

			pv, iv := verdictLines(plainOut.String()), verdictLines(incrOut.String())
			if strings.Join(pv, " ") != strings.Join(iv, " ") {
				t.Fatalf("verdicts diverge: plain %v, incremental %v", pv, iv)
			}

			// Validate the incremental run's final model against the
			// assertions still in scope.
			if st, _ := incr.Status(); st == StatusSat {
				sc, err := ParseScript(string(src))
				if err != nil {
					t.Fatal(err)
				}
				model := incr.Model()
				for _, a := range liveAsserts(sc) {
					sub := substituteModel(a, model)
					ok, err := evalBool(sub)
					if err != nil {
						t.Fatalf("evaluating %s: %v", sub, err)
					}
					if !ok {
						t.Errorf("incremental model does not satisfy %s (substituted: %s)", a, sub)
					}
				}
			}
		})
	}
}

// dfsStep is one interactive command batch of the randomized DFS,
// applied identically to both interpreters.
type dfsHarness struct {
	t     *testing.T
	plain *Interpreter
	incr  *Interpreter
	// live mirrors the assertion stack (as source text) for model
	// validation; frames records its size at each push.
	live   []string
	frames []int
}

func (h *dfsHarness) exec(src string) {
	h.t.Helper()
	h.plain.ResetIncremental()
	if err := h.plain.Execute(src); err != nil {
		h.t.Fatalf("plain: %v (src %s)", err, src)
	}
	if err := h.incr.Execute(src); err != nil {
		h.t.Fatalf("incremental: %v (src %s)", err, src)
	}
}

func (h *dfsHarness) push(assert string) {
	h.frames = append(h.frames, len(h.live))
	h.live = append(h.live, assert)
	h.exec("(push)" + assert)
}

func (h *dfsHarness) pop() {
	h.live = h.live[:h.frames[len(h.frames)-1]]
	h.frames = h.frames[:len(h.frames)-1]
	h.exec("(pop)")
}

// checkSat runs check-sat on both interpreters, requires equal verdicts,
// and validates the incremental model against the live assertions when
// sat. Returns the shared verdict.
func (h *dfsHarness) checkSat() Status {
	h.t.Helper()
	h.exec("(check-sat)")
	ps, _ := h.plain.Status()
	is, _ := h.incr.Status()
	if ps != is {
		h.t.Fatalf("verdicts diverge under %v: plain %s, incremental %s", h.live, ps, is)
	}
	if is == StatusSat {
		model := h.incr.Model()
		for _, a := range h.live {
			nodes, err := ParseSExprs(a)
			if err != nil || len(nodes) == 0 {
				h.t.Fatalf("parsing live assert %q: %v", a, err)
			}
			// nodes[0] is (assert t); validate t.
			term := nodes[0].Args()[0]
			ok, err := evalBool(substituteModel(term, model))
			if err != nil {
				h.t.Fatalf("evaluating %s: %v", term, err)
			}
			if !ok {
				h.t.Errorf("incremental model %v fails %s", model, term)
			}
		}
	}
	return is
}

// TestIncrementalRandomizedDFSDifferential walks a randomized branching
// path condition — palindrome base, per-branch character pins, the
// occasional ground contradiction — checking plain-vs-incremental
// verdict equality and model validity at every node.
func TestIncrementalRandomizedDFSDifferential(t *testing.T) {
	const length = 8
	plain, _ := testInterp(88)
	incr, _ := testInterp(88)
	h := &dfsHarness{t: t, plain: plain, incr: incr}

	base := fmt.Sprintf(`
		(declare-const x String)
		(assert (= x (str.rev x)))
		(assert (= (str.len x) %d))
	`, length)
	h.live = append(h.live, `(assert (= x (str.rev x)))`, fmt.Sprintf(`(assert (= (str.len x) %d))`, length))
	h.exec(base)
	h.checkSat()

	rng := rand.New(rand.NewSource(42))
	sats, others := 0, 0
	var dfs func(depth int)
	dfs = func(depth int) {
		if depth == 3 {
			return
		}
		for b := 0; b < 2; b++ {
			if rng.Intn(8) == 0 {
				// A ground contradiction: deterministically unsat, then
				// popped — the next sibling must recover.
				h.push(`(assert (= "a" "b"))`)
				if v := h.checkSat(); v != StatusUnsat {
					t.Errorf("ground contradiction verdict %s", v)
				}
				h.pop()
			}
			pin := fmt.Sprintf(`(assert (= (str.at x %d) "%c"))`, depth, 'a'+byte(rng.Intn(4)))
			h.push(pin)
			if h.checkSat() == StatusSat {
				sats++
				dfs(depth + 1)
			} else {
				others++
			}
			h.pop()
		}
	}
	dfs(0)
	if sats == 0 {
		t.Fatal("DFS never reached a sat node; the differential exercised nothing")
	}
	t.Logf("DFS: %d sat nodes, %d non-sat nodes", sats, others)

	// After the walk both interpreters are back at the base frame and
	// still agree.
	if v := h.checkSat(); v != StatusSat {
		t.Errorf("base frame verdict %s after DFS", v)
	}
}

// TestIncrementalInterpretersConcurrent runs several interpreters
// (sharing nothing) concurrently, one of them with several variables per
// check-sat; under -race this is the smtlib-level data race check for
// incremental reuse. Concurrent use of one session is covered by the
// root package's TestIncrementalSessionConcurrent.
func TestIncrementalInterpretersConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			it, _ := testInterp(int64(60 + g))
			errs[g] = it.Execute(fmt.Sprintf(`
				(declare-const x String)
				(assert (= x (str.rev x)))
				(assert (= (str.len x) 6))
				(check-sat)
				(push)
				(assert (= (str.at x 0) "%c"))
				(check-sat)
				(pop)
				(check-sat)
			`, 'p'+byte(g)))
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		it, _ := testInterp(66)
		errs[2] = it.Execute(`
			(declare-const a String)
			(assert (= a "aa"))
			(declare-const b String)
			(assert (= b (str.rev "bc")))
			(declare-const c String)
			(assert (str.prefixof "x" c))
			(assert (= (str.len c) 3))
			(check-sat)
			(push)
			(assert (= (str.at c 2) "q"))
			(check-sat)
			(pop)
			(check-sat)
		`)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}
