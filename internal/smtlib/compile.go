package smtlib

import (
	"fmt"
	"slices"

	"qsmt"
	"qsmt/internal/core"
)

// Problem is one solvable unit extracted from a script: a variable
// together with either a constraint pipeline (string variables) or a
// single constraint (integer str.indexof variables).
type Problem struct {
	Var      string
	Sort     Sort
	Pipeline *qsmt.Pipeline  // non-nil for string variables
	Single   qsmt.Constraint // non-nil for integer variables
	// Asserts holds the assertion nodes that produced this problem, in
	// assertion order. The interpreter keys its per-problem memo on
	// their rendered forms: a push/pop delta that leaves a variable's
	// assertion group untouched leaves its key — and therefore its
	// memoized verdict — untouched.
	Asserts []*Node
	// Soft holds the compiled optimization directives for this variable
	// — (minimize ...) objectives first, then (assert-soft ...) terms at
	// their weights. A non-empty Soft routes the problem through
	// Solver.Optimize instead of the incremental path.
	Soft []qsmt.SoftConstraint
	// Objectives holds the (minimize ...) source terms in source order,
	// for (get-objectives) rendering; a str.len objective's value is the
	// length of the (trimmed) model string.
	Objectives []*Node
	// Trim is set when a str.len objective is present: the witness's
	// trailing NUL padding (the minimizer's encoding of unused frame
	// positions) is trimmed from the reported model value.
	Trim bool
}

// Compilation is the result of compiling a script's assertions.
type Compilation struct {
	Problems []Problem
	// GroundFalse holds ground assertions that evaluated to false; any
	// entry makes the script trivially unsat.
	GroundFalse []*Node
}

// Compile lowers a script's assertions to QUBO problems. Assertions are
// grouped per declared variable; the recognized per-variable shapes are:
//
//	(= x <ground term>)                        pipeline of §4.1/2/7/8/9 ops
//	(= x (str.rev x)) + length                 palindrome (§4.10)
//	(str.contains x "sub") + length            substring match (§4.3)
//	(= (str.substr x i m) "sub") + length      indexOf generation (§4.5)
//	(str.in_re x RE) + length                  regex (§4.11)
//	(= i (str.indexof "t" "s" 0))              includes (§4.4), i : Int
//
// where "length" is (= (str.len x) n) in either orientation. Assertions
// mentioning no variables are evaluated as ground facts.
func Compile(sc *Script) (*Compilation, error) {
	// A symbol the script never declared is named here; ground
	// evaluation would report it as a term it cannot evaluate.
	terms := append(slices.Clone(sc.Asserts), sc.Objectives...)
	for _, s := range sc.Softs {
		terms = append(terms, s.Term)
	}
	for _, t := range terms {
		if u := undeclaredSymbol(t, sc.Decls); u != nil {
			return nil, posErr(u, "undeclared symbol "+u.Atom)
		}
	}
	comp := &Compilation{}
	perVar := map[string][]*Node{}
	for _, a := range sc.Asserts {
		vars := mentionedVars(a, sc.Decls)
		switch len(vars) {
		case 0:
			ok, err := evalBool(a)
			if err != nil {
				return nil, err
			}
			if !ok {
				comp.GroundFalse = append(comp.GroundFalse, a)
			}
		case 1:
			perVar[vars[0]] = append(perVar[vars[0]], a)
		default:
			return nil, posErr(a, fmt.Sprintf("assertion relates variables %v; multi-variable constraints are not supported", vars))
		}
	}
	perVarSoft := map[string][]SoftAssert{}
	for _, s := range sc.Softs {
		vars := mentionedVars(s.Term, sc.Decls)
		if len(vars) != 1 {
			return nil, posErr(s.Term, "assert-soft terms must mention exactly one declared variable")
		}
		perVarSoft[vars[0]] = append(perVarSoft[vars[0]], s)
	}
	perVarObj := map[string][]*Node{}
	for _, o := range sc.Objectives {
		vars := mentionedVars(o, sc.Decls)
		if len(vars) != 1 {
			return nil, posErr(o, "minimize terms must mention exactly one declared variable")
		}
		perVarObj[vars[0]] = append(perVarObj[vars[0]], o)
	}
	for _, d := range sc.Decls {
		asserts := perVar[d.Name]
		softs := perVarSoft[d.Name]
		objs := perVarObj[d.Name]
		if len(asserts) == 0 && len(softs) == 0 && len(objs) == 0 {
			continue // unconstrained variable: any value models it
		}
		p, err := compileVar(d, asserts, softs, objs)
		if err != nil {
			return nil, err
		}
		p.Asserts = asserts
		comp.Problems = append(comp.Problems, p)
	}
	return comp, nil
}

// compileVar compiles the assertions about one variable, plus any
// optimization directives (assert-soft terms and minimize objectives)
// attached to it.
func compileVar(d Decl, asserts []*Node, softs []SoftAssert, objs []*Node) (Problem, error) {
	if d.Sort == SortInt {
		if len(softs) > 0 || len(objs) > 0 {
			return Problem{}, fmt.Errorf("smtlib: optimization directives are not supported on Int variable %s", d.Name)
		}
		return compileIntVar(d, asserts)
	}
	optimizing := len(softs) > 0 || len(objs) > 0

	// Split off the length constraint, if any. When a minimize objective
	// is present, a (<= (str.len x) n) budget also fixes the QUBO frame
	// length — the objective drives unused tail positions to NUL padding
	// and the reported value is the trimmed length.
	length := -1
	budget := -1
	var rest []*Node
	for _, a := range asserts {
		if n, ok := matchLength(a, d.Name); ok {
			if length >= 0 && length != n {
				return Problem{}, posErr(a, fmt.Sprintf("conflicting lengths %d and %d for %s", length, n, d.Name))
			}
			length = n
			continue
		}
		if n, ok := matchLengthLE(a, d.Name); ok && len(objs) > 0 {
			if budget < 0 || n < budget {
				budget = n
			}
			continue
		}
		rest = append(rest, a)
	}
	if length >= 0 && budget >= 0 && length > budget {
		return Problem{}, fmt.Errorf("smtlib: length %d for %s exceeds its (<= (str.len %s) %d) budget", length, d.Name, d.Name, budget)
	}
	frame := length
	if frame < 0 {
		frame = budget
	}

	if len(rest) == 0 {
		if frame < 0 {
			if optimizing {
				return Problem{}, fmt.Errorf("smtlib: optimization on %s requires a length bound ((= (str.len %s) n) or (<= (str.len %s) n))", d.Name, d.Name, d.Name)
			}
			return Problem{}, fmt.Errorf("smtlib: no usable constraint for %s", d.Name)
		}
		// Only a length: generate any printable string of that length —
		// unless an objective will drive unused positions to NUL padding,
		// which needs the NUL-tolerant free frame.
		gen := anyString(frame)
		if optimizing {
			gen = &core.AnyString{N: frame}
		}
		return finishOptProblem(Problem{
			Var: d.Name, Sort: d.Sort,
			Pipeline: qsmt.NewPipeline(gen),
		}, d, frame, softs, objs)
	}
	length = frame

	// Structural constraints (they fix a property of x rather than
	// defining it by a ground term) can be combined: several of them
	// merge into one conjunction QUBO solved simultaneously. Negative
	// single-character constraints, (not (str.contains x "c")), fold
	// into one AvoidChars instance.
	var structural []qsmt.Constraint
	var definitions []*Node
	var avoid []byte
	for _, a := range rest {
		if ch, ok, err := matchNotContainsChar(a, d.Name); err != nil {
			return Problem{}, err
		} else if ok {
			avoid = append(avoid, ch)
			continue
		}
		sc, ok, err := matchStructural(a, d.Name, length)
		if err != nil {
			return Problem{}, err
		}
		if ok {
			structural = append(structural, sc)
			continue
		}
		if term, ok := matchDefinition(a, d.Name); ok {
			definitions = append(definitions, term)
			continue
		}
		return Problem{}, posErr(a, fmt.Sprintf("unsupported constraint form for %s: %s", d.Name, a))
	}
	if len(avoid) > 0 {
		if length < 0 {
			return Problem{}, posErr(rest[0], "negative str.contains constraints require (= (str.len x) n)")
		}
		if len(structural) > 0 || len(definitions) > 0 {
			// AvoidChars carries quadratization auxiliaries, so its
			// variable layout differs from the purely-primary encoders
			// and cannot be merged additively with them.
			return Problem{}, posErr(rest[0], fmt.Sprintf("negative constraints on %s cannot be combined with other constraint forms", d.Name))
		}
		return finishOptProblem(Problem{Var: d.Name, Sort: d.Sort, Pipeline: qsmt.NewPipeline(qsmt.AvoidChars(avoid, length))}, d, length, softs, objs)
	}
	switch {
	case len(definitions) > 1:
		return Problem{}, posErr(rest[0], fmt.Sprintf("variable %s has %d definitions; at most one (= %s term) is supported", d.Name, len(definitions), d.Name))
	case len(definitions) == 1 && len(structural) > 0:
		return Problem{}, posErr(rest[0], fmt.Sprintf("variable %s mixes a definition with structural constraints; use separate variables", d.Name))
	case len(definitions) == 1:
		pl, err := compileGroundPipeline(definitions[0])
		if err != nil {
			return Problem{}, err
		}
		return finishOptProblem(Problem{Var: d.Name, Sort: d.Sort, Pipeline: pl}, d, length, softs, objs)
	case len(structural) == 1:
		return finishOptProblem(Problem{Var: d.Name, Sort: d.Sort, Pipeline: qsmt.NewPipeline(structural[0])}, d, length, softs, objs)
	default:
		return finishOptProblem(Problem{Var: d.Name, Sort: d.Sort, Pipeline: qsmt.NewPipeline(qsmt.And(structural...))}, d, length, softs, objs)
	}
}

// finishOptProblem attaches a variable's optimization directives to its
// compiled problem: each (minimize (str.len x)) becomes a MinLength
// objective over the frame, and each assert-soft term compiles to a
// weighted soft constraint against the same frame. Soft-carrying
// problems must be single-stage — Solver.Optimize grades one combined
// QUBO, and a multi-stage pipeline has no single hard model to combine
// with.
func finishOptProblem(p Problem, d Decl, length int, softs []SoftAssert, objs []*Node) (Problem, error) {
	if len(softs) == 0 && len(objs) == 0 {
		return p, nil
	}
	for _, o := range objs {
		if !matchStrLen(o, d.Name) {
			return Problem{}, posErr(o, fmt.Sprintf("unsupported minimize term %s; only (minimize (str.len %s)) is supported", o, d.Name))
		}
		if length < 0 {
			return Problem{}, posErr(o, fmt.Sprintf("minimize (str.len %s) requires a length bound ((= (str.len %s) n) or (<= (str.len %s) n))", d.Name, d.Name, d.Name))
		}
		p.Objectives = append(p.Objectives, o)
		p.Trim = true
		if length > 0 {
			p.Soft = append(p.Soft, qsmt.Soft(qsmt.MinLength(length), 1))
		}
		// length == 0 leaves nothing to minimize; the objective still
		// reports its (trivially zero) value through get-objectives.
	}
	for _, s := range softs {
		c, err := compileSoftTerm(s.Term, d.Name, length)
		if err != nil {
			return Problem{}, err
		}
		p.Soft = append(p.Soft, qsmt.Soft(c, s.Weight))
	}
	if len(p.Soft) > 0 && p.Pipeline != nil && p.Pipeline.Len() != 1 {
		return Problem{}, fmt.Errorf("smtlib: optimization directives on %s require a single-stage problem; its definition compiles to %d pipeline stages", d.Name, p.Pipeline.Len())
	}
	return p, nil
}

// compileSoftTerm lowers one assert-soft term to a constraint: the
// structural forms matchStructural recognizes, or a single-stage ground
// definition like (= x "lit").
func compileSoftTerm(a *Node, name string, length int) (qsmt.Constraint, error) {
	if c, ok, err := matchStructural(a, name, length); err != nil {
		return nil, err
	} else if ok {
		return c, nil
	}
	if term, ok := matchDefinition(a, name); ok {
		pl, err := compileGroundPipeline(term)
		if err != nil {
			return nil, err
		}
		if pl.Len() != 1 {
			return nil, posErr(a, "soft definitions must be single-stage (a literal or one operation)")
		}
		return pl.Generator(), nil
	}
	return nil, posErr(a, fmt.Sprintf("unsupported soft constraint form for %s: %s", name, a))
}

// matchNotContainsChar recognizes (not (str.contains x "c")) with a
// single-character literal.
func matchNotContainsChar(a *Node, name string) (byte, bool, error) {
	if a.Head() != "not" || len(a.Args()) != 1 {
		return 0, false, nil
	}
	inner := a.Args()[0]
	sub, ok := matchContains(inner, name)
	if !ok {
		return 0, false, nil
	}
	if len(sub) != 1 {
		return 0, false, posErr(inner, "negative str.contains supports single-character needles (the QUBO gadget is per character)")
	}
	return sub[0], true, nil
}

// matchStructural recognizes the per-variable structural forms, all of
// which need a length bound n:
//
//	(= x (str.rev x))              → Palindrome(n)
//	(str.contains x "sub")         → SubstringMatch(sub, n)
//	(= (str.substr x i m) "sub")   → IndexOf(sub, i, n)
//	(str.in_re x RE)               → Regex(re, n)
//	(str.prefixof "p" x)           → PrefixOf(p, n)
//	(str.suffixof "s" x)           → SuffixOf(s, n)
//	(= (str.at x i) "c")           → CharAt(c, i, n)
func matchStructural(a *Node, name string, length int) (qsmt.Constraint, bool, error) {
	needLen := func(what string) error {
		if length < 0 {
			return posErr(a, what+" constraint requires (= (str.len x) n)")
		}
		return nil
	}
	if matchPalindrome(a, name) {
		if err := needLen("palindrome"); err != nil {
			return nil, false, err
		}
		return qsmt.Palindrome(length), true, nil
	}
	if sub, ok := matchContains(a, name); ok {
		if err := needLen("str.contains"); err != nil {
			return nil, false, err
		}
		return qsmt.SubstringMatch(sub, length), true, nil
	}
	if sub, idx, ok, err := matchSubstrAt(a, name); err != nil {
		return nil, false, err
	} else if ok {
		if err := needLen("str.substr"); err != nil {
			return nil, false, err
		}
		return qsmt.IndexOf(sub, idx, length), true, nil
	}
	if re, ok, err := matchInRe(a, name); err != nil {
		return nil, false, err
	} else if ok {
		if err := needLen("str.in_re"); err != nil {
			return nil, false, err
		}
		return qsmt.Regex(re, length), true, nil
	}
	if p, ok := matchAffix(a, name, "str.prefixof"); ok {
		if err := needLen("str.prefixof"); err != nil {
			return nil, false, err
		}
		return qsmt.PrefixOf(p, length), true, nil
	}
	if s, ok := matchAffix(a, name, "str.suffixof"); ok {
		if err := needLen("str.suffixof"); err != nil {
			return nil, false, err
		}
		return qsmt.SuffixOf(s, length), true, nil
	}
	if c, idx, ok, err := matchCharAt(a, name); err != nil {
		return nil, false, err
	} else if ok {
		if err := needLen("str.at"); err != nil {
			return nil, false, err
		}
		return qsmt.CharAt(c, idx, length), true, nil
	}
	return nil, false, nil
}

// matchAffix recognizes (op "lit" x) for str.prefixof / str.suffixof.
func matchAffix(a *Node, name, op string) (string, bool) {
	if a.Head() != op || len(a.Args()) != 2 {
		return "", false
	}
	lit, v := a.Args()[0], a.Args()[1]
	if lit.Kind != NodeString || !v.IsSymbol(name) {
		return "", false
	}
	return lit.Atom, true
}

// matchCharAt recognizes (= (str.at x i) "c") in either orientation.
func matchCharAt(a *Node, name string) (byte, int, bool, error) {
	if a.Head() != "=" || len(a.Args()) != 2 {
		return 0, 0, false, nil
	}
	l, r := a.Args()[0], a.Args()[1]
	if l.Kind == NodeString {
		l, r = r, l
	}
	if l.Head() != "str.at" || r.Kind != NodeString {
		return 0, 0, false, nil
	}
	args := l.Args()
	if len(args) != 2 || !args[0].IsSymbol(name) {
		return 0, 0, false, nil
	}
	idx, err := args[1].Int()
	if err != nil {
		return 0, 0, false, posErr(args[1], "str.at position must be a numeral")
	}
	if len(r.Atom) != 1 {
		return 0, 0, false, posErr(r, "str.at equates to a single-character literal")
	}
	return r.Atom[0], idx, true, nil
}

func compileIntVar(d Decl, asserts []*Node) (Problem, error) {
	if len(asserts) != 1 {
		return Problem{}, posErr(asserts[0], fmt.Sprintf("integer variable %s supports exactly one (= %s (str.indexof ...)) assertion", d.Name, d.Name))
	}
	a := asserts[0]
	term, ok := matchDefinition(a, d.Name)
	if !ok || term.Head() != "str.indexof" {
		return Problem{}, posErr(a, fmt.Sprintf("integer variable %s must be defined as (str.indexof t s 0)", d.Name))
	}
	args := term.Args()
	if len(args) != 3 {
		return Problem{}, posErr(term, "str.indexof expects three arguments")
	}
	t, err := evalString(args[0])
	if err != nil {
		return Problem{}, err
	}
	s, err := evalString(args[1])
	if err != nil {
		return Problem{}, err
	}
	from, err := evalInt(args[2])
	if err != nil {
		return Problem{}, err
	}
	if from != 0 {
		return Problem{}, posErr(args[2], "str.indexof offset must be 0 (the paper's includes constraint searches from the start)")
	}
	return Problem{Var: d.Name, Sort: d.Sort, Single: qsmt.Includes(t, s)}, nil
}

// compileGroundPipeline lowers a ground string term into the sequential
// pipeline of §4.12: innermost operation first, each stage consuming the
// previous stage's witness.
func compileGroundPipeline(n *Node) (*qsmt.Pipeline, error) {
	switch n.Kind {
	case NodeString:
		return qsmt.NewPipeline(qsmt.Equality(n.Atom)), nil
	case NodeList:
		args := n.Args()
		switch n.Head() {
		case "str.++":
			return compileConcat(n, args)
		case "str.rev":
			if len(args) != 1 {
				return nil, posErr(n, "str.rev expects one argument")
			}
			inner, err := compileGroundPipeline(args[0])
			if err != nil {
				return nil, err
			}
			return inner.Reverse(), nil
		case "str.to_upper", "str.to_lower":
			if len(args) != 1 {
				return nil, posErr(n, n.Head()+" expects one argument")
			}
			inner, err := compileGroundPipeline(args[0])
			if err != nil {
				return nil, err
			}
			if n.Head() == "str.to_upper" {
				return inner.ToUpper(), nil
			}
			return inner.ToLower(), nil
		case "str.replace", "str.replace_all":
			if len(args) != 3 {
				return nil, posErr(n, n.Head()+" expects three arguments")
			}
			inner, err := compileGroundPipeline(args[0])
			if err != nil {
				return nil, err
			}
			old, err := evalString(args[1])
			if err != nil {
				return nil, err
			}
			new, err := evalString(args[2])
			if err != nil {
				return nil, err
			}
			if len(old) != 1 || len(new) != 1 {
				return nil, posErr(n, "the QUBO replace encodings operate on single characters (§4.7–4.8)")
			}
			if n.Head() == "str.replace" {
				return inner.Replace(old[0], new[0]), nil
			}
			return inner.ReplaceAll(old[0], new[0]), nil
		}
	}
	return nil, posErr(n, fmt.Sprintf("unsupported term %s in definition", n))
}

// compileConcat lowers str.++: fully-literal concatenations become one
// Concat generator; a single nested operation among literal siblings
// becomes Prepend/Append stages around the nested pipeline.
func compileConcat(n *Node, args []*Node) (*qsmt.Pipeline, error) {
	if len(args) == 0 {
		return nil, posErr(n, "str.++ expects arguments")
	}
	nestedIdx := -1
	lits := make([]string, len(args))
	for i, a := range args {
		if a.Kind == NodeString {
			lits[i] = a.Atom
			continue
		}
		// A compound operand becomes a nested pipeline, preserving the
		// paper's one-QUBO-per-operation sequential semantics (§4.12).
		if nestedIdx >= 0 {
			return nil, posErr(a, "str.++ supports at most one non-literal operand")
		}
		nestedIdx = i
	}
	if nestedIdx < 0 {
		return qsmt.NewPipeline(qsmt.Concat(lits...)), nil
	}
	inner, err := compileGroundPipeline(args[nestedIdx])
	if err != nil {
		return nil, err
	}
	var before, after string
	for i, l := range lits {
		if i < nestedIdx {
			before += l
		} else if i > nestedIdx {
			after += l
		}
	}
	if after != "" {
		inner = inner.Append(after)
	}
	if before != "" {
		inner = inner.Prepend(before)
	}
	return inner, nil
}

// anyString builds a generator for "any printable string of length n":
// an IndexOf constraint with an empty strong window is not expressible,
// so it reuses the printable-biased filler by pinning a zero-length…
// instead, the cleanest encoding is a Regex of n printable classes, but
// the simplest faithful gadget is IndexOf with a 1-char window only when
// n > 0. For n = 0 the empty Equality suffices.
func anyString(n int) qsmt.Constraint {
	if n == 0 {
		return qsmt.Equality("")
	}
	return &core.AnyPrintable{N: n}
}

// ---- assertion pattern matchers ----

// matchLength recognizes (= (str.len x) n) or (= n (str.len x)).
func matchLength(a *Node, name string) (int, bool) {
	if a.Head() != "=" || len(a.Args()) != 2 {
		return 0, false
	}
	l, r := a.Args()[0], a.Args()[1]
	try := func(lenSide, numSide *Node) (int, bool) {
		if lenSide.Head() != "str.len" || len(lenSide.Args()) != 1 || !lenSide.Args()[0].IsSymbol(name) {
			return 0, false
		}
		n, err := numSide.Int()
		if err != nil {
			return 0, false
		}
		return n, true
	}
	if n, ok := try(l, r); ok {
		return n, true
	}
	return try(r, l)
}

// matchLengthLE recognizes the length-budget forms (<= (str.len x) n)
// and (>= n (str.len x)). Budgets only matter to the optimizer (the sat
// path needs an exact frame), so callers gate on a minimize objective
// being present.
func matchLengthLE(a *Node, name string) (int, bool) {
	head := a.Head()
	if (head != "<=" && head != ">=") || len(a.Args()) != 2 {
		return 0, false
	}
	l, r := a.Args()[0], a.Args()[1]
	if head == ">=" {
		l, r = r, l
	}
	if l.Head() != "str.len" || len(l.Args()) != 1 || !l.Args()[0].IsSymbol(name) {
		return 0, false
	}
	n, err := r.Int()
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// matchStrLen recognizes (str.len x).
func matchStrLen(a *Node, name string) bool {
	return a.Head() == "str.len" && len(a.Args()) == 1 && a.Args()[0].IsSymbol(name)
}

// matchPalindrome recognizes (= x (str.rev x)) in either orientation.
func matchPalindrome(a *Node, name string) bool {
	if a.Head() != "=" || len(a.Args()) != 2 {
		return false
	}
	l, r := a.Args()[0], a.Args()[1]
	isRev := func(n *Node) bool {
		return n.Head() == "str.rev" && len(n.Args()) == 1 && n.Args()[0].IsSymbol(name)
	}
	return (l.IsSymbol(name) && isRev(r)) || (r.IsSymbol(name) && isRev(l))
}

// matchContains recognizes (str.contains x "sub").
func matchContains(a *Node, name string) (string, bool) {
	if a.Head() != "str.contains" || len(a.Args()) != 2 {
		return "", false
	}
	t, s := a.Args()[0], a.Args()[1]
	if !t.IsSymbol(name) || s.Kind != NodeString {
		return "", false
	}
	return s.Atom, true
}

// matchSubstrAt recognizes (= (str.substr x i m) "sub") in either
// orientation, validating m == len(sub).
func matchSubstrAt(a *Node, name string) (sub string, idx int, ok bool, err error) {
	if a.Head() != "=" || len(a.Args()) != 2 {
		return "", 0, false, nil
	}
	l, r := a.Args()[0], a.Args()[1]
	if l.Kind == NodeString {
		l, r = r, l
	}
	if l.Head() != "str.substr" || r.Kind != NodeString {
		return "", 0, false, nil
	}
	args := l.Args()
	if len(args) != 3 || !args[0].IsSymbol(name) {
		return "", 0, false, nil
	}
	idx, ierr := args[1].Int()
	if ierr != nil {
		return "", 0, false, posErr(args[1], "str.substr offset must be a numeral")
	}
	m, merr := args[2].Int()
	if merr != nil {
		return "", 0, false, posErr(args[2], "str.substr length must be a numeral")
	}
	if m != len(r.Atom) {
		return "", 0, false, posErr(a, fmt.Sprintf("str.substr extracts %d characters but the literal has %d", m, len(r.Atom)))
	}
	return r.Atom, idx, true, nil
}

// matchInRe recognizes (str.in_re x RE).
func matchInRe(a *Node, name string) (string, bool, error) {
	if a.Head() != "str.in_re" || len(a.Args()) != 2 {
		return "", false, nil
	}
	if !a.Args()[0].IsSymbol(name) {
		return "", false, nil
	}
	pat, err := regexToPattern(a.Args()[1])
	if err != nil {
		return "", false, err
	}
	return pat, true, nil
}

// matchDefinition recognizes (= x term) or (= term x) with x not
// occurring in term.
func matchDefinition(a *Node, name string) (*Node, bool) {
	if a.Head() != "=" || len(a.Args()) != 2 {
		return nil, false
	}
	l, r := a.Args()[0], a.Args()[1]
	if l.IsSymbol(name) && !mentions(r, name) {
		return r, true
	}
	if r.IsSymbol(name) && !mentions(l, name) {
		return l, true
	}
	return nil, false
}
