package smtlib

import (
	"context"
	"fmt"
	"strings"

	"qsmt"
)

// This file is the interpreter half of incremental solving. Push/pop
// traffic changes the live assertion set by small deltas, so almost
// every per-variable problem a check-sat extracts is identical to one a
// previous check-sat already solved. The interpreter exploits that at
// two levels:
//
//  1. Problems whose assertion group is unchanged (by rendered content)
//     hit a per-interpreter memo and reuse the earlier outcome without
//     touching the solver at all.
//  2. Problems an assertion delta actually changed solve through a
//     qsmt.IncrementalSession keyed by variable name, which reuses
//     unchanged QUBO components across frames and warm-starts the
//     touched components from the parent frame's witness.
//
// Together these make a DFS over a branching path condition cost
// roughly one touched component per step instead of one full re-solve
// per step.

// probMemoCap bounds the per-problem verdict memo; FIFO over first
// insertion keeps the live frontier of a deep search resident while
// bounding long-running interpreters.
const probMemoCap = 4096

// renderMemoCap bounds the node render cache; it is cleared wholesale
// when exceeded (entries are tiny and rebuild on demand).
const renderMemoCap = 65536

// memoResult is one memoized per-problem outcome. Errors are memoized
// too: solver verdicts are deterministic for a fixed seed, and replaying
// an unsat/unknown without re-annealing is exactly the point.
type memoResult struct {
	val Value
	err error
}

// renderNode returns the canonical rendered form of an assertion node,
// cached by pointer identity — parse trees are immutable after parsing,
// so a node renders once no matter how many check-sats its scope
// survives.
func (it *Interpreter) renderNode(a *Node) string {
	if s, ok := it.renderMemo[a]; ok {
		return s
	}
	if it.renderMemo == nil || len(it.renderMemo) >= renderMemoCap {
		it.renderMemo = make(map[*Node]string)
	}
	s := a.String()
	it.renderMemo[a] = s
	return s
}

// problemKey renders a problem's identity: variable, sort, and the
// rendered assertion group in assertion order. Two check-sats whose
// deltas leave a variable's assertions untouched produce the same key.
func (it *Interpreter) problemKey(p Problem) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\x00%d", p.Var, p.Sort)
	for _, a := range p.Asserts {
		b.WriteByte(0)
		b.WriteString(it.renderNode(a))
	}
	return b.String()
}

// memoStore records an outcome, evicting FIFO beyond the cap.
func (it *Interpreter) memoStore(key string, r memoResult) {
	if it.probMemo == nil {
		it.probMemo = make(map[string]memoResult)
	}
	if _, ok := it.probMemo[key]; !ok {
		it.probOrder = append(it.probOrder, key)
	}
	it.probMemo[key] = r
	for len(it.probOrder) > probMemoCap {
		delete(it.probMemo, it.probOrder[0])
		it.probOrder = it.probOrder[1:]
	}
}

// solveIncremental resolves one per-variable problem: memo hit, or a
// session solve (single-stage pipelines and integer problems), or a
// sequential pipeline run (multi-stage pipelines keep their
// stage-to-stage data dependency). Outcomes — values and errors alike —
// are memoized under the problem's assertion-set key.
func (it *Interpreter) solveIncremental(p Problem) (Value, error) {
	key := it.problemKey(p)
	if r, ok := it.probMemo[key]; ok {
		return r.val, r.err
	}
	var r memoResult
	if p.Pipeline != nil && p.Pipeline.Len() > 1 {
		res, err := it.Solver.Run(p.Pipeline)
		if err != nil {
			r.err = err
		} else {
			r.val = Value{Sort: SortString, Str: res.Output}
		}
	} else {
		if it.session == nil {
			it.session = it.Solver.NewIncrementalSession()
		}
		c := p.Single
		if p.Pipeline != nil {
			c = p.Pipeline.Generator()
		}
		res, err := it.session.Solve(context.Background(), p.Var, c)
		switch {
		case err != nil:
			r.err = err
		case p.Single != nil:
			r.val = Value{Sort: SortInt, Int: res.Witness.Index}
		case res.Witness.Kind != qsmt.WitnessString:
			r.err = fmt.Errorf("smtlib: %s produced a non-string witness", p.Var)
		default:
			r.val = Value{Sort: SortString, Str: res.Witness.Str}
		}
	}
	it.memoStore(key, r)
	return r.val, r.err
}

// ResetIncremental drops the interpreter's incremental caches (problem
// memo, render cache, and the session's component memo and parent
// witnesses). Assertion state is untouched. Useful when a driver reuses
// one interpreter across unrelated workloads.
func (it *Interpreter) ResetIncremental() {
	it.probMemo = nil
	it.probOrder = nil
	it.renderMemo = nil
	if it.session != nil {
		it.session.Reset()
	}
}
