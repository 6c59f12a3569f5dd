package smtlib

import (
	"fmt"
	"slices"
	"strings"

	"qsmt/internal/regexlite"
	"qsmt/internal/strtheory"
)

// evalString evaluates a ground string term (one containing no declared
// variables) to its value using the reference semantics.
func evalString(n *Node) (string, error) {
	switch n.Kind {
	case NodeString:
		return n.Atom, nil
	case NodeList:
		args := n.Args()
		switch n.Head() {
		case "str.++":
			var parts []string
			for _, a := range args {
				v, err := evalString(a)
				if err != nil {
					return "", err
				}
				parts = append(parts, v)
			}
			return strtheory.Concat(parts...), nil
		case "str.rev":
			if len(args) != 1 {
				return "", posErr(n, "str.rev expects one argument")
			}
			v, err := evalString(args[0])
			if err != nil {
				return "", err
			}
			return strtheory.Reverse(v), nil
		case "str.to_upper", "str.to_lower":
			if len(args) != 1 {
				return "", posErr(n, n.Head()+" expects one argument")
			}
			v, err := evalString(args[0])
			if err != nil {
				return "", err
			}
			if n.Head() == "str.to_upper" {
				return strings.ToUpper(v), nil
			}
			return strings.ToLower(v), nil
		case "str.replace":
			t, old, new, err := threeStrings(n, args)
			if err != nil {
				return "", err
			}
			return strtheory.Replace(t, old, new), nil
		case "str.replace_all":
			t, old, new, err := threeStrings(n, args)
			if err != nil {
				return "", err
			}
			return strtheory.ReplaceAll(t, old, new), nil
		case "str.substr":
			if len(args) != 3 {
				return "", posErr(n, "str.substr expects three arguments")
			}
			s, err := evalString(args[0])
			if err != nil {
				return "", err
			}
			from, err := evalInt(args[1])
			if err != nil {
				return "", err
			}
			ln, err := evalInt(args[2])
			if err != nil {
				return "", err
			}
			return strtheory.Substr(s, from, ln), nil
		case "str.at":
			if len(args) != 2 {
				return "", posErr(n, "str.at expects two arguments")
			}
			s, err := evalString(args[0])
			if err != nil {
				return "", err
			}
			i, err := evalInt(args[1])
			if err != nil {
				return "", err
			}
			return strtheory.At(s, i), nil
		}
	}
	return "", posErr(n, fmt.Sprintf("cannot evaluate %s as a ground string", n))
}

func threeStrings(n *Node, args []*Node) (a, b, c string, err error) {
	if len(args) != 3 {
		return "", "", "", posErr(n, n.Head()+" expects three arguments")
	}
	if a, err = evalString(args[0]); err != nil {
		return
	}
	if b, err = evalString(args[1]); err != nil {
		return
	}
	c, err = evalString(args[2])
	return
}

// evalInt evaluates a ground integer term.
func evalInt(n *Node) (int, error) {
	switch n.Kind {
	case NodeNumeral:
		return n.Int()
	case NodeList:
		args := n.Args()
		switch n.Head() {
		case "str.len":
			if len(args) != 1 {
				return 0, posErr(n, "str.len expects one argument")
			}
			s, err := evalString(args[0])
			if err != nil {
				return 0, err
			}
			return strtheory.Length(s), nil
		case "str.indexof":
			if len(args) != 3 {
				return 0, posErr(n, "str.indexof expects three arguments")
			}
			t, err := evalString(args[0])
			if err != nil {
				return 0, err
			}
			s, err := evalString(args[1])
			if err != nil {
				return 0, err
			}
			from, err := evalInt(args[2])
			if err != nil {
				return 0, err
			}
			return strtheory.IndexOf(t, s, from), nil
		case "-":
			if len(args) == 1 {
				v, err := evalInt(args[0])
				if err != nil {
					return 0, err
				}
				return -v, nil
			}
			if len(args) == 2 {
				a, err := evalInt(args[0])
				if err != nil {
					return 0, err
				}
				b, err := evalInt(args[1])
				if err != nil {
					return 0, err
				}
				return a - b, nil
			}
		case "+":
			total := 0
			for _, a := range args {
				v, err := evalInt(a)
				if err != nil {
					return 0, err
				}
				total += v
			}
			return total, nil
		}
	}
	return 0, posErr(n, fmt.Sprintf("cannot evaluate %s as a ground integer", n))
}

// evalBool evaluates a ground boolean term.
func evalBool(n *Node) (bool, error) {
	if n.IsSymbol("true") {
		return true, nil
	}
	if n.IsSymbol("false") {
		return false, nil
	}
	if n.Kind != NodeList {
		return false, posErr(n, fmt.Sprintf("cannot evaluate %s as a ground boolean", n))
	}
	args := n.Args()
	switch n.Head() {
	case "=":
		if len(args) != 2 {
			return false, posErr(n, "= expects two arguments")
		}
		// Try strings first, then integers.
		if a, err := evalString(args[0]); err == nil {
			b, err := evalString(args[1])
			if err != nil {
				return false, err
			}
			return a == b, nil
		}
		a, err := evalInt(args[0])
		if err != nil {
			return false, err
		}
		b, err := evalInt(args[1])
		if err != nil {
			return false, err
		}
		return a == b, nil
	case "str.contains":
		if len(args) != 2 {
			return false, posErr(n, "str.contains expects two arguments")
		}
		t, err := evalString(args[0])
		if err != nil {
			return false, err
		}
		s, err := evalString(args[1])
		if err != nil {
			return false, err
		}
		return strtheory.Contains(t, s), nil
	case "str.in_re":
		if len(args) != 2 {
			return false, posErr(n, "str.in_re expects two arguments")
		}
		s, err := evalString(args[0])
		if err != nil {
			return false, err
		}
		pat, err := regexToPattern(args[1])
		if err != nil {
			return false, err
		}
		re, err := regexlite.Parse(pat)
		if err != nil {
			return false, err
		}
		return re.Match(s), nil
	case "str.prefixof":
		if len(args) != 2 {
			return false, posErr(n, "str.prefixof expects two arguments")
		}
		s, err := evalString(args[0])
		if err != nil {
			return false, err
		}
		t, err := evalString(args[1])
		if err != nil {
			return false, err
		}
		return strtheory.PrefixOf(s, t), nil
	case "str.suffixof":
		if len(args) != 2 {
			return false, posErr(n, "str.suffixof expects two arguments")
		}
		s, err := evalString(args[0])
		if err != nil {
			return false, err
		}
		t, err := evalString(args[1])
		if err != nil {
			return false, err
		}
		return strtheory.SuffixOf(s, t), nil
	case "not":
		if len(args) != 1 {
			return false, posErr(n, "not expects one argument")
		}
		v, err := evalBool(args[0])
		if err != nil {
			return false, err
		}
		return !v, nil
	case "and":
		for _, a := range args {
			v, err := evalBool(a)
			if err != nil {
				return false, err
			}
			if !v {
				return false, nil
			}
		}
		return true, nil
	case "or":
		for _, a := range args {
			v, err := evalBool(a)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	}
	return false, posErr(n, fmt.Sprintf("cannot evaluate %s as a ground boolean", n))
}

// mentions reports whether term n references the symbol name.
func mentions(n *Node, name string) bool {
	if n == nil {
		return false
	}
	if n.Kind == NodeSymbol && n.Atom == name {
		return true
	}
	for _, c := range n.List {
		if mentions(c, name) {
			return true
		}
	}
	return false
}

// undeclaredSymbol returns the first symbol of term n outside operator
// position that is neither a declared variable nor true or false, or
// nil. Macros are expanded at parse time, so the script never declared
// it.
func undeclaredSymbol(n *Node, decls []Decl) *Node {
	if n.Head() == "_" { // an indexed identifier names an operator
		return nil
	}
	if n.Kind == NodeSymbol && n.Atom != "true" && n.Atom != "false" &&
		!slices.ContainsFunc(decls, func(d Decl) bool { return d.Name == n.Atom }) {
		return n
	}
	for i, c := range n.List {
		if u := undeclaredSymbol(c, decls); u != nil && (i > 0 || c.Kind != NodeSymbol) {
			return u
		}
	}
	return nil
}

// mentionedVars returns the declared variables referenced by n, in
// declaration order.
func mentionedVars(n *Node, decls []Decl) []string {
	var out []string
	for _, d := range decls {
		if mentions(n, d.Name) {
			out = append(out, d.Name)
		}
	}
	return out
}

// regexToPattern lowers an SMT-LIB regular-expression term to a
// regexlite pattern string: str.to_re (literal), re.++ (concatenation),
// re.+ (plus), re.union of single-character alternatives and re.range
// (character class).
func regexToPattern(n *Node) (string, error) {
	var sb strings.Builder
	if err := regexAppend(&sb, n, false); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func regexAppend(sb *strings.Builder, n *Node, inPlus bool) error {
	if n.Kind != NodeList {
		return posErr(n, "regular expression term expected")
	}
	args := n.Args()
	switch n.Head() {
	case "str.to_re":
		if len(args) != 1 || args[0].Kind != NodeString {
			return posErr(n, "str.to_re expects one string literal")
		}
		lit := args[0].Atom
		if lit == "" {
			return posErr(n, "empty literal in regular expression")
		}
		if inPlus && len(lit) != 1 {
			return posErr(n, "re.+ applies to a single character or class")
		}
		for i := 0; i < len(lit); i++ {
			appendEscaped(sb, lit[i])
		}
		return nil
	case "re.++":
		if inPlus {
			return posErr(n, "re.+ of a concatenation is not supported")
		}
		for _, a := range args {
			if err := regexAppend(sb, a, false); err != nil {
				return err
			}
		}
		return nil
	case "re.+", "re.*", "re.opt":
		if len(args) != 1 {
			return posErr(n, n.Head()+" expects one argument")
		}
		if err := regexAppend(sb, args[0], true); err != nil {
			return err
		}
		switch n.Head() {
		case "re.+":
			sb.WriteByte('+')
		case "re.*":
			sb.WriteByte('*')
		default:
			sb.WriteByte('?')
		}
		return nil
	case "re.union":
		if len(args) < 1 {
			return posErr(n, "re.union expects at least one argument")
		}
		sb.WriteByte('[')
		for _, a := range args {
			if err := unionMember(sb, a); err != nil {
				return err
			}
		}
		sb.WriteByte(']')
		return nil
	case "re.range":
		sb.WriteByte('[')
		if err := rangeMember(sb, n); err != nil {
			return err
		}
		sb.WriteByte(']')
		return nil
	}
	return posErr(n, fmt.Sprintf("unsupported regular-expression operator %q", n.Head()))
}

// unionMember appends one re.union alternative into an open class.
func unionMember(sb *strings.Builder, n *Node) error {
	if n.Kind == NodeList && n.Head() == "str.to_re" {
		args := n.Args()
		if len(args) != 1 || args[0].Kind != NodeString || len(args[0].Atom) != 1 {
			return posErr(n, "re.union members must be single characters")
		}
		appendClassEscaped(sb, args[0].Atom[0])
		return nil
	}
	if n.Kind == NodeList && n.Head() == "re.range" {
		return rangeMember(sb, n)
	}
	return posErr(n, "re.union members must be single characters or ranges")
}

func rangeMember(sb *strings.Builder, n *Node) error {
	args := n.Args()
	if len(args) != 2 || args[0].Kind != NodeString || args[1].Kind != NodeString ||
		len(args[0].Atom) != 1 || len(args[1].Atom) != 1 {
		return posErr(n, "re.range expects two single-character literals")
	}
	appendClassEscaped(sb, args[0].Atom[0])
	sb.WriteByte('-')
	appendClassEscaped(sb, args[1].Atom[0])
	return nil
}

func appendEscaped(sb *strings.Builder, c byte) {
	if c == '[' || c == ']' || c == '+' || c == '\\' {
		sb.WriteByte('\\')
	}
	sb.WriteByte(c)
}

func appendClassEscaped(sb *strings.Builder, c byte) {
	if c == '[' || c == ']' || c == '\\' || c == '-' {
		sb.WriteByte('\\')
	}
	sb.WriteByte(c)
}
