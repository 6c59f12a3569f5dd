package smtlib

import (
	"fmt"
	"maps"
	"strconv"
)

// Sort is a variable sort. The front end supports the two sorts the
// solver can witness: String and Int (the latter only as an str.indexof
// result).
type Sort int

// Supported sorts.
const (
	SortString Sort = iota
	SortInt
)

func (s Sort) String() string {
	if s == SortInt {
		return "Int"
	}
	return "String"
}

// Decl is a declared constant.
type Decl struct {
	Name string
	Sort Sort
}

// CommandKind discriminates script commands.
type CommandKind int

// Command kinds retained for execution order.
const (
	CmdCheckSat CommandKind = iota
	CmdCheckSatAssuming
	CmdGetModel
	CmdGetValue
	CmdGetInfo
	CmdGetObjectives
	CmdEcho
	CmdExit
	CmdPush
	CmdPop
)

// Command is one executable script command.
type Command struct {
	Kind  CommandKind
	Arg   string  // echo text / get-info keyword
	N     int     // push/pop level count
	Terms []*Node // get-value terms
	Node  *Node
}

// ItemKind discriminates ordered script items.
type ItemKind int

// Item kinds.
const (
	ItemDecl ItemKind = iota
	ItemAssert
	ItemCommand
	ItemDefine
	ItemSoft
	ItemMinimize
)

// Item is one script element in source order; the interpreter executes
// Items so push/pop scoping interleaves correctly with assertions.
type Item struct {
	Kind   ItemKind
	Decl   Decl    // ItemDecl and ItemDefine (name + sort)
	Assert *Node   // ItemAssert term, ItemDefine body, ItemSoft/ItemMinimize term
	Weight float64 // ItemSoft weight (from :weight, default 1)
	Cmd    Command
}

// SoftAssert is one (assert-soft term :weight w) directive: a constraint
// the solver should satisfy when possible, violated at cost Weight.
type SoftAssert struct {
	Term   *Node
	Weight float64
}

// Script is a parsed SMT-LIB script. Decls/Asserts/Commands are the
// flattened views (every declaration and assertion in the file,
// regardless of push/pop scope) used by the one-shot Compile API; Items
// preserves source order for incremental execution.
type Script struct {
	Logic    string
	Decls    []Decl
	Asserts  []*Node
	Commands []Command
	Items    []Item
	// Softs and Objectives are the optimization directives: weighted
	// (assert-soft ...) terms and (minimize ...) objective terms, in
	// source order. Like Asserts, these are the flattened views; Items
	// carries the same entries in scope-aware order.
	Softs      []SoftAssert
	Objectives []*Node

	// defs holds define-fun macros, already expanded against earlier
	// defines. Macro expansion happens at parse time, so within one
	// parsed text defines are global (not push/pop scoped — a
	// documented deviation from full SMT-LIB scoping). The interpreter
	// seeds each Execute chunk with the macros live at its start, so
	// across chunks they follow push/pop.
	defs map[string]*Node
}

// applyDefs substitutes define-fun macros into a term.
func applyDefs(n *Node, defs map[string]*Node) *Node {
	if n == nil || len(defs) == 0 {
		return n
	}
	if n.Kind == NodeSymbol {
		if body, ok := defs[n.Atom]; ok {
			return body
		}
		return n
	}
	if n.Kind != NodeList {
		return n
	}
	changed := false
	out := &Node{Kind: NodeList, Line: n.Line, Col: n.Col, List: make([]*Node, len(n.List))}
	for i, c := range n.List {
		out.List[i] = applyDefs(c, defs)
		if out.List[i] != c {
			changed = true
		}
	}
	if !changed {
		return n
	}
	return out
}

// DeclOf returns the declaration for name.
func (s *Script) DeclOf(name string) (Decl, bool) {
	for _, d := range s.Decls {
		if d.Name == name {
			return d, true
		}
	}
	return Decl{}, false
}

// ParseScript parses SMT-LIB source into a Script, validating command
// shapes but not yet compiling assertions.
func ParseScript(src string) (*Script, error) { return parseScript(src, nil) }

// parseScript is ParseScript with macros already in scope: outer (name
// to expanded body) expands inside src until src defines the same name,
// which shadows it. The map is not modified.
func parseScript(src string, outer map[string]*Node) (*Script, error) {
	nodes, err := ParseSExprs(src)
	if err != nil {
		return nil, err
	}
	sc := &Script{defs: maps.Clone(outer)}
	defined := map[string]bool{} // names src itself defines
	addCmd := func(c Command) {
		sc.Commands = append(sc.Commands, c)
		sc.Items = append(sc.Items, Item{Kind: ItemCommand, Cmd: c})
	}
	for _, n := range nodes {
		if n.Kind != NodeList || len(n.List) == 0 {
			return nil, posErr(n, "top-level form is not a command")
		}
		head := n.Head()
		args := n.Args()
		switch head {
		case "set-logic":
			if len(args) != 1 || args[0].Kind != NodeSymbol {
				return nil, posErr(n, "set-logic expects one symbol")
			}
			sc.Logic = args[0].Atom
		case "set-info", "set-option":
			// Accepted and ignored; benchmark headers carry these.
		case "declare-const":
			if len(args) != 2 {
				return nil, posErr(n, "declare-const expects (declare-const name Sort)")
			}
			if err := sc.declare(args[0], args[1]); err != nil {
				return nil, err
			}
		case "declare-fun":
			if len(args) != 3 || args[1].Kind != NodeList {
				return nil, posErr(n, "declare-fun expects (declare-fun name () Sort)")
			}
			if len(args[1].List) != 0 {
				return nil, posErr(n, "only nullary declare-fun is supported")
			}
			if err := sc.declare(args[0], args[2]); err != nil {
				return nil, err
			}
		case "define-fun":
			// (define-fun name () Sort body): a ground macro. Bodies may
			// reference earlier defines; they are expanded on use.
			if len(args) != 4 || args[1].Kind != NodeList || len(args[1].List) != 0 {
				return nil, posErr(n, "define-fun expects (define-fun name () Sort body)")
			}
			if args[0].Kind != NodeSymbol {
				return nil, posErr(args[0], "define-fun name must be a symbol")
			}
			var sort Sort
			switch {
			case args[2].IsSymbol("String"):
				sort = SortString
			case args[2].IsSymbol("Int"):
				sort = SortInt
			default:
				return nil, posErr(args[2], "define-fun supports String and Int sorts")
			}
			if _, dup := sc.DeclOf(args[0].Atom); dup {
				return nil, posErr(args[0], fmt.Sprintf("define-fun %s collides with a declaration", args[0].Atom))
			}
			if defined[args[0].Atom] {
				return nil, posErr(args[0], fmt.Sprintf("duplicate define-fun %s", args[0].Atom))
			}
			defined[args[0].Atom] = true
			body := applyDefs(args[3], sc.defs)
			if sc.defs == nil {
				sc.defs = map[string]*Node{}
			}
			sc.defs[args[0].Atom] = body
			sc.Items = append(sc.Items, Item{
				Kind:   ItemDefine,
				Decl:   Decl{Name: args[0].Atom, Sort: sort},
				Assert: body,
			})
		case "assert":
			if len(args) != 1 {
				return nil, posErr(n, "assert expects one term")
			}
			term := applyDefs(args[0], sc.defs)
			sc.Asserts = append(sc.Asserts, term)
			sc.Items = append(sc.Items, Item{Kind: ItemAssert, Assert: term})
		case "assert-soft":
			// (assert-soft term) or (assert-soft term :weight w): a
			// weighted soft assertion, violated at cost w (default 1).
			if len(args) == 0 {
				return nil, posErr(n, "assert-soft expects a term")
			}
			weight := 1.0
			switch len(args) {
			case 1:
			case 3:
				if args[1].Kind != NodeKeyword || args[1].Atom != "weight" {
					return nil, posErr(args[1], "assert-soft supports only the :weight attribute")
				}
				w, err := parseWeight(args[2])
				if err != nil {
					return nil, err
				}
				weight = w
			default:
				return nil, posErr(n, "assert-soft expects (assert-soft term) or (assert-soft term :weight w)")
			}
			term := applyDefs(args[0], sc.defs)
			sc.Softs = append(sc.Softs, SoftAssert{Term: term, Weight: weight})
			sc.Items = append(sc.Items, Item{Kind: ItemSoft, Assert: term, Weight: weight})
		case "minimize":
			if len(args) != 1 {
				return nil, posErr(n, "minimize expects one term")
			}
			term := applyDefs(args[0], sc.defs)
			sc.Objectives = append(sc.Objectives, term)
			sc.Items = append(sc.Items, Item{Kind: ItemMinimize, Assert: term})
		case "get-objectives":
			if len(args) != 0 {
				return nil, posErr(n, "get-objectives expects no arguments")
			}
			addCmd(Command{Kind: CmdGetObjectives, Node: n})
		case "check-sat":
			addCmd(Command{Kind: CmdCheckSat, Node: n})
		case "check-sat-assuming":
			// (check-sat-assuming (t₁ t₂ …)): one check with temporary
			// assumptions, equivalent to push/assert*/check-sat/pop.
			if len(args) != 1 || args[0].Kind != NodeList {
				return nil, posErr(n, "check-sat-assuming expects a term list")
			}
			terms := make([]*Node, len(args[0].List))
			for i, term := range args[0].List {
				terms[i] = applyDefs(term, sc.defs)
			}
			addCmd(Command{Kind: CmdCheckSatAssuming, Terms: terms, Node: n})
		case "get-model":
			addCmd(Command{Kind: CmdGetModel, Node: n})
		case "get-value":
			if len(args) != 1 || args[0].Kind != NodeList || len(args[0].List) == 0 {
				return nil, posErr(n, "get-value expects a non-empty term list")
			}
			terms := make([]*Node, len(args[0].List))
			for i, term := range args[0].List {
				terms[i] = applyDefs(term, sc.defs)
			}
			addCmd(Command{Kind: CmdGetValue, Terms: terms, Node: n})
		case "get-info":
			if len(args) != 1 || args[0].Kind != NodeKeyword {
				return nil, posErr(n, "get-info expects one keyword")
			}
			addCmd(Command{Kind: CmdGetInfo, Arg: args[0].Atom, Node: n})
		case "echo":
			if len(args) != 1 || args[0].Kind != NodeString {
				return nil, posErr(n, "echo expects one string literal")
			}
			addCmd(Command{Kind: CmdEcho, Arg: args[0].Atom, Node: n})
		case "push", "pop":
			levels := 1
			if len(args) > 1 {
				return nil, posErr(n, head+" expects at most one numeral")
			}
			if len(args) == 1 {
				v, err := args[0].Int()
				if err != nil || v < 0 {
					return nil, posErr(n, head+" expects a non-negative numeral")
				}
				levels = v
			}
			kind := CmdPush
			if head == "pop" {
				kind = CmdPop
			}
			addCmd(Command{Kind: kind, N: levels, Node: n})
		case "exit":
			addCmd(Command{Kind: CmdExit, Node: n})
		default:
			return nil, posErr(n, fmt.Sprintf("unsupported command %q", head))
		}
	}
	return sc, nil
}

func (s *Script) declare(nameNode, sortNode *Node) error {
	if nameNode.Kind != NodeSymbol {
		return posErr(nameNode, "declaration name must be a symbol")
	}
	var sort Sort
	switch {
	case sortNode.IsSymbol("String"):
		sort = SortString
	case sortNode.IsSymbol("Int"):
		sort = SortInt
	default:
		return posErr(sortNode, fmt.Sprintf("unsupported sort %s (String and Int only)", sortNode))
	}
	if _, dup := s.DeclOf(nameNode.Atom); dup {
		return posErr(nameNode, fmt.Sprintf("duplicate declaration of %s", nameNode.Atom))
	}
	if _, macro := s.defs[nameNode.Atom]; macro {
		// Macros expand at parse time, so every later use of the name
		// would silently read the macro body instead of the variable.
		return posErr(nameNode, fmt.Sprintf("declaration of %s collides with a define-fun", nameNode.Atom))
	}
	d := Decl{Name: nameNode.Atom, Sort: sort}
	s.Decls = append(s.Decls, d)
	s.Items = append(s.Items, Item{Kind: ItemDecl, Decl: d})
	return nil
}

// parseWeight parses an assert-soft :weight value: a positive numeral
// (or a decimal rendered as a symbol, which the lexer tolerates).
func parseWeight(n *Node) (float64, error) {
	if n.Kind != NodeNumeral && n.Kind != NodeSymbol {
		return 0, posErr(n, ":weight expects a positive number")
	}
	w, err := strconv.ParseFloat(n.Atom, 64)
	if err != nil || w <= 0 {
		return 0, posErr(n, ":weight expects a positive number")
	}
	return w, nil
}

func posErr(n *Node, msg string) error {
	return &ParseError{Line: n.Line, Col: n.Col, Msg: msg}
}
