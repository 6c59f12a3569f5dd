package smtlib

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"qsmt"
)

// Status is a check-sat verdict.
type Status int

// Verdicts.
const (
	StatusSat Status = iota
	StatusUnsat
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Value is a model entry.
type Value struct {
	Sort Sort
	Str  string
	Int  int
}

// Interpreter executes SMT-LIB scripts against a qsmt solver. Push/pop
// maintain a stack of assertion scopes, and each check-sat compiles the
// assertions visible at that point and solves them incrementally: a
// per-variable problem whose assertion group is unchanged replays its
// memoized verdict, and a changed one solves through one
// qsmt.IncrementalSession that reuses unchanged QUBO components across
// frames. An Interpreter is not safe for concurrent use.
type Interpreter struct {
	Solver *qsmt.Solver
	Out    io.Writer
	// Incremental is ignored.
	//
	// Deprecated: every check-sat is incremental; kept only because
	// perfbench sets it.
	Incremental bool

	// Incremental state: the session (lazily created), the per-problem
	// verdict memo with its FIFO insertion order, and the per-node render
	// cache backing the memo keys.
	session    *qsmt.IncrementalSession
	probMemo   map[string]memoResult
	probOrder  []string
	renderMemo map[*Node]string

	// Live assertion state (push/pop-scoped).
	decls      []Decl
	asserts    []*Node
	defines    []Item // define-fun items (name, sort, expanded body)
	softs      []SoftAssert
	objectives []*Node
	frames     []frame

	status Status
	model  map[string]Value
	ran    bool
	// objReport holds the (minimize ...) objectives active at the last
	// check-sat with their achieved values, for (get-objectives).
	objReport []objEntry
}

// objEntry is one reported objective: the minimize term and its value
// under the current model.
type objEntry struct {
	term  *Node
	value int
}

// frame records the state sizes at a push, restored by the matching pop.
// All five live-state slices are covered: forgetting one (nDefines was
// missing for several releases) leaks scoped items past their pop.
type frame struct{ nDecls, nAsserts, nDefines, nSofts, nObjectives int }

// NewInterpreter returns an interpreter writing command responses to out.
// A nil solver selects qsmt defaults.
func NewInterpreter(solver *qsmt.Solver, out io.Writer) *Interpreter {
	if solver == nil {
		solver = qsmt.NewSolver(nil)
	}
	if out == nil {
		out = io.Discard
	}
	return &Interpreter{Solver: solver, Out: out}
}

// Execute parses and runs a script, writing one response line per
// output-producing command (check-sat, get-model, echo). State persists
// across Execute calls, so an interactive front end can feed commands
// incrementally.
func (it *Interpreter) Execute(src string) error {
	var live map[string]*Node
	for _, def := range it.defines {
		if live == nil {
			live = make(map[string]*Node, len(it.defines))
		}
		live[def.Decl.Name] = def.Assert
	}
	sc, err := parseScript(src, live)
	if err != nil {
		return err
	}
	for _, item := range sc.Items {
		switch item.Kind {
		case ItemDecl:
			for _, d := range it.decls {
				if d.Name == item.Decl.Name {
					return fmt.Errorf("smtlib: duplicate declaration of %s", d.Name)
				}
			}
			it.decls = append(it.decls, item.Decl)
		case ItemAssert:
			it.asserts = append(it.asserts, item.Assert)
		case ItemDefine:
			for _, d := range it.decls {
				if d.Name == item.Decl.Name {
					return fmt.Errorf("smtlib: define-fun %s collides with a declaration", d.Name)
				}
			}
			it.defines = append(it.defines, item)
		case ItemSoft:
			it.softs = append(it.softs, SoftAssert{Term: item.Assert, Weight: item.Weight})
		case ItemMinimize:
			it.objectives = append(it.objectives, item.Assert)
		case ItemCommand:
			done, err := it.runCommand(item.Cmd)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
		}
	}
	return nil
}

// runCommand executes one command; done reports an (exit).
func (it *Interpreter) runCommand(cmd Command) (done bool, err error) {
	switch cmd.Kind {
	case CmdEcho:
		fmt.Fprintln(it.Out, cmd.Arg)
	case CmdCheckSat:
		if err := it.checkSat(); err != nil {
			return false, err
		}
		fmt.Fprintln(it.Out, it.status)
	case CmdCheckSatAssuming:
		// Temporary assumptions: check against the current assertions
		// plus the listed terms, then restore.
		saved := len(it.asserts)
		it.asserts = append(it.asserts, cmd.Terms...)
		err := it.checkSat()
		it.asserts = it.asserts[:saved]
		if err != nil {
			return false, err
		}
		fmt.Fprintln(it.Out, it.status)
	case CmdGetModel:
		if err := it.printModel(); err != nil {
			return false, err
		}
	case CmdGetValue:
		if err := it.printValues(cmd.Terms); err != nil {
			return false, err
		}
	case CmdGetInfo:
		it.printInfo(cmd.Arg)
	case CmdGetObjectives:
		if err := it.printObjectives(); err != nil {
			return false, err
		}
	case CmdPush:
		for k := 0; k < cmd.N; k++ {
			it.frames = append(it.frames, frame{
				nDecls: len(it.decls), nAsserts: len(it.asserts), nDefines: len(it.defines),
				nSofts: len(it.softs), nObjectives: len(it.objectives),
			})
		}
	case CmdPop:
		// Validate before unwinding anything, so an over-deep pop is
		// atomic: it errors with every scope intact instead of popping
		// as far as it can and then failing.
		if cmd.N > len(it.frames) {
			return false, errors.New("smtlib: pop without matching push")
		}
		for k := 0; k < cmd.N; k++ {
			f := it.frames[len(it.frames)-1]
			it.frames = it.frames[:len(it.frames)-1]
			it.decls = it.decls[:f.nDecls]
			it.asserts = it.asserts[:f.nAsserts]
			it.defines = it.defines[:f.nDefines]
			it.softs = it.softs[:f.nSofts]
			it.objectives = it.objectives[:f.nObjectives]
		}
	case CmdExit:
		return true, nil
	}
	return false, nil
}

// Status returns the most recent check-sat verdict.
func (it *Interpreter) Status() (Status, bool) { return it.status, it.ran }

// Model returns the model found by the most recent sat check-sat.
func (it *Interpreter) Model() map[string]Value { return it.model }

func (it *Interpreter) checkSat() error {
	it.ran = true
	it.model = map[string]Value{}
	it.objReport = nil
	snapshot := &Script{Decls: it.decls, Asserts: it.asserts, Softs: it.softs, Objectives: it.objectives}
	comp, err := Compile(snapshot)
	if err != nil {
		return err
	}
	if len(comp.GroundFalse) > 0 {
		it.status = StatusUnsat
		return nil
	}
	// One problem per variable, in declaration order; the first failure
	// decides the verdict.
	for _, p := range comp.Problems {
		var val Value
		if len(p.Soft) > 0 {
			// Soft-carrying problems bypass the verdict memo: a verdict
			// cached without the objective would be wrong to reuse, and
			// an objective value is not a verdict.
			val, err = it.solveOptimize(p)
		} else {
			val, err = it.solveIncremental(p)
		}
		if err != nil {
			return it.classify(err)
		}
		it.model[p.Var] = val
		// Objective values report against the (already trimmed) model
		// string: a str.len objective's value is its length.
		for _, term := range p.Objectives {
			it.objReport = append(it.objReport, objEntry{term: term, value: len(val.Str)})
		}
	}
	// define-fun macros evaluate to concrete values for the model.
	for _, def := range it.defines {
		if def.Decl.Sort == SortString {
			if v, err := evalString(def.Assert); err == nil {
				it.model[def.Decl.Name] = Value{Sort: SortString, Str: v}
			}
		} else if v, err := evalInt(def.Assert); err == nil {
			it.model[def.Decl.Name] = Value{Sort: SortInt, Int: v}
		}
	}
	// Unconstrained declared variables still deserve model entries.
	for _, d := range it.decls {
		if _, ok := it.model[d.Name]; !ok {
			if d.Sort == SortString {
				it.model[d.Name] = Value{Sort: SortString, Str: ""}
			} else {
				it.model[d.Name] = Value{Sort: SortInt, Int: 0}
			}
		}
	}
	it.status = StatusSat
	return nil
}

// solveOptimize solves a soft-carrying problem through the MaxSAT/OMT
// mode: the (single-stage) hard pipeline's generator is the hard
// constraint, the compiled directives are the weighted soft objective.
// A str.len objective's NUL frame padding is trimmed from the reported
// model value.
func (it *Interpreter) solveOptimize(p Problem) (Value, error) {
	if p.Pipeline == nil || p.Pipeline.Len() != 1 {
		return Value{}, fmt.Errorf("smtlib: optimization directives on %s require a single-stage problem", p.Var)
	}
	res, err := it.Solver.Optimize([]qsmt.Constraint{p.Pipeline.Generator()}, p.Soft)
	if err != nil {
		return Value{}, err
	}
	str := res.Witness.Str
	if p.Trim {
		str = qsmt.TrimPadding(str)
	}
	return Value{Sort: SortString, Str: str}, nil
}

// printObjectives answers (get-objectives) in the z3 style:
//
//	(objectives
//	 ((str.len x) 2)
//	)
func (it *Interpreter) printObjectives() error {
	if !it.ran {
		return errors.New("smtlib: get-objectives before check-sat")
	}
	if it.status != StatusSat {
		return fmt.Errorf("smtlib: get-objectives after %s", it.status)
	}
	fmt.Fprintln(it.Out, "(objectives")
	for _, e := range it.objReport {
		fmt.Fprintf(it.Out, " (%s %d)\n", e.term, e.value)
	}
	fmt.Fprintln(it.Out, ")")
	return nil
}

// classify converts solver failures into verdicts: provable
// unsatisfiability is "unsat", an exhausted annealing budget or a
// sampling job that ran past its deadline is "unknown" (the honest
// answer for an incomplete solver), so the script's remaining commands
// still run.
func (it *Interpreter) classify(err error) error {
	switch {
	case errors.Is(err, qsmt.ErrUnsatisfiable):
		it.status = StatusUnsat
		return nil
	case errors.Is(err, qsmt.ErrNoModel), errors.Is(err, context.DeadlineExceeded):
		it.status = StatusUnknown
		return nil
	default:
		return err
	}
}

// printValues answers (get-value (t₁ t₂ …)): every term is substituted
// with the current model and ground-evaluated.
func (it *Interpreter) printValues(terms []*Node) error {
	if !it.ran {
		return errors.New("smtlib: get-value before check-sat")
	}
	if it.status != StatusSat {
		return fmt.Errorf("smtlib: get-value after %s", it.status)
	}
	fmt.Fprint(it.Out, "(")
	for i, term := range terms {
		sub := substituteModel(term, it.model)
		var rendered string
		if v, err := evalString(sub); err == nil {
			rendered = (&Node{Kind: NodeString, Atom: v}).String()
		} else if v, err := evalInt(sub); err == nil {
			rendered = fmt.Sprintf("%d", v)
		} else if v, err := evalBool(sub); err == nil {
			rendered = fmt.Sprintf("%v", v)
		} else {
			return fmt.Errorf("smtlib: get-value cannot evaluate %s", term)
		}
		if i > 0 {
			fmt.Fprint(it.Out, " ")
		}
		fmt.Fprintf(it.Out, "(%s %s)", term, rendered)
	}
	fmt.Fprintln(it.Out, ")")
	return nil
}

// printInfo answers (get-info :keyword) for the common benchmark
// keywords.
func (it *Interpreter) printInfo(keyword string) {
	switch keyword {
	case "name":
		fmt.Fprintln(it.Out, `(:name "qsmt")`)
	case "version":
		fmt.Fprintln(it.Out, `(:version "1.0")`)
	case "authors":
		fmt.Fprintln(it.Out, `(:authors "qsmt — QUBO/annealing string solver")`)
	default:
		fmt.Fprintf(it.Out, "(:%s unsupported)\n", keyword)
	}
}

// substituteModel replaces model variables inside a term by value nodes.
func substituteModel(n *Node, model map[string]Value) *Node {
	if n == nil {
		return nil
	}
	if n.Kind == NodeSymbol {
		if v, ok := model[n.Atom]; ok {
			if v.Sort == SortString {
				return &Node{Kind: NodeString, Atom: v.Str, Line: n.Line, Col: n.Col}
			}
			if v.Int < 0 {
				return &Node{Kind: NodeList, Line: n.Line, Col: n.Col, List: []*Node{
					{Kind: NodeSymbol, Atom: "-"},
					{Kind: NodeNumeral, Atom: fmt.Sprintf("%d", -v.Int)},
				}}
			}
			return &Node{Kind: NodeNumeral, Atom: fmt.Sprintf("%d", v.Int), Line: n.Line, Col: n.Col}
		}
		return n
	}
	if n.Kind != NodeList {
		return n
	}
	out := &Node{Kind: NodeList, Line: n.Line, Col: n.Col}
	for _, c := range n.List {
		out.List = append(out.List, substituteModel(c, model))
	}
	return out
}

func (it *Interpreter) printModel() error {
	if !it.ran {
		return errors.New("smtlib: get-model before check-sat")
	}
	if it.status != StatusSat {
		return fmt.Errorf("smtlib: get-model after %s", it.status)
	}
	names := make([]string, 0, len(it.model))
	for n := range it.model {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(it.Out, "(")
	for _, n := range names {
		v := it.model[n]
		if v.Sort == SortString {
			fmt.Fprintf(it.Out, "  (define-fun %s () String \"%s\")\n", n, strings.ReplaceAll(v.Str, `"`, `""`))
		} else {
			fmt.Fprintf(it.Out, "  (define-fun %s () Int %d)\n", n, v.Int)
		}
	}
	fmt.Fprintln(it.Out, ")")
	return nil
}
