package core

// This file implements the constraint formulations the paper's
// conclusion lists as future work ("we can create more formulations
// based on this preliminary work for other string constraints"). Each
// follows the established encoding styles: diagonal targets for
// deterministic transforms, strong-window + soft-filler for positional
// constraints, and additive model merging for conjunction.

import (
	"fmt"

	"qsmt/internal/ascii7"
	"qsmt/internal/qubo"
	"qsmt/internal/strtheory"
)

// PrefixOf generates a string of Length characters starting with Prefix
// (SMT-LIB str.prefixof with a length bound). Encoding: the §4.5
// strong-window/soft-filler scheme with the window pinned at index 0.
type PrefixOf struct {
	Prefix string
	Length int
	A      float64
}

// Name implements Constraint.
func (c *PrefixOf) Name() string { return "prefixof" }

// NumVars implements Constraint.
func (c *PrefixOf) NumVars() int { return ascii7.NumVars(c.Length) }

// BuildModel implements Constraint.
func (c *PrefixOf) BuildModel() (*qubo.Model, error) {
	m, err := c.window().BuildModel()
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", c.Name(), err)
	}
	return m, nil
}

// window is the IndexOf encoding this constraint is built on.
func (c *PrefixOf) window() *IndexOf {
	return &IndexOf{Sub: c.Prefix, Index: 0, Length: c.Length, A: c.A}
}

// StyleBias implements StyleBiased: the filler positions' printable
// bias.
func (c *PrefixOf) StyleBias() (*qubo.Model, error) { return c.window().StyleBias() }

// Decode implements Constraint.
func (c *PrefixOf) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint.
func (c *PrefixOf) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: prefixof expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.Length {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.Length)
	}
	if !strtheory.PrefixOf(c.Prefix, w.Str) {
		return fmt.Errorf("%w: %q does not start with %q", ErrCheckFailed, w.Str, c.Prefix)
	}
	return nil
}

// SuffixOf generates a string of Length characters ending with Suffix
// (SMT-LIB str.suffixof with a length bound): the §4.5 scheme with the
// window pinned at Length−len(Suffix).
type SuffixOf struct {
	Suffix string
	Length int
	A      float64
}

// Name implements Constraint.
func (c *SuffixOf) Name() string { return "suffixof" }

// NumVars implements Constraint.
func (c *SuffixOf) NumVars() int { return ascii7.NumVars(c.Length) }

// BuildModel implements Constraint.
func (c *SuffixOf) BuildModel() (*qubo.Model, error) {
	m, err := c.window().BuildModel()
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", c.Name(), err)
	}
	return m, nil
}

// window is the IndexOf encoding this constraint is built on.
func (c *SuffixOf) window() *IndexOf {
	return &IndexOf{Sub: c.Suffix, Index: c.Length - len(c.Suffix), Length: c.Length, A: c.A}
}

// StyleBias implements StyleBiased: the filler positions' printable
// bias.
func (c *SuffixOf) StyleBias() (*qubo.Model, error) { return c.window().StyleBias() }

// Decode implements Constraint.
func (c *SuffixOf) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint.
func (c *SuffixOf) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: suffixof expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.Length {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.Length)
	}
	if !strtheory.SuffixOf(c.Suffix, w.Str) {
		return fmt.Errorf("%w: %q does not end with %q", ErrCheckFailed, w.Str, c.Suffix)
	}
	return nil
}

// CharAt generates a string of Length characters with the single
// character C at position Index (SMT-LIB str.at as a generator).
type CharAt struct {
	C      byte
	Index  int
	Length int
	A      float64
}

// Name implements Constraint.
func (c *CharAt) Name() string { return "charat" }

// NumVars implements Constraint.
func (c *CharAt) NumVars() int { return ascii7.NumVars(c.Length) }

// BuildModel implements Constraint.
func (c *CharAt) BuildModel() (*qubo.Model, error) {
	return c.window().BuildModel()
}

// window is the IndexOf encoding this constraint is built on.
func (c *CharAt) window() *IndexOf {
	return &IndexOf{Sub: string(c.C), Index: c.Index, Length: c.Length, A: c.A}
}

// StyleBias implements StyleBiased: the filler positions' printable
// bias.
func (c *CharAt) StyleBias() (*qubo.Model, error) { return c.window().StyleBias() }

// Decode implements Constraint.
func (c *CharAt) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint.
func (c *CharAt) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: charat expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.Length {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.Length)
	}
	if strtheory.At(w.Str, c.Index) != string(c.C) {
		return fmt.Errorf("%w: %q has %q at %d, want %q", ErrCheckFailed, w.Str, strtheory.At(w.Str, c.Index), c.Index, string(c.C))
	}
	return nil
}

// ToUpper generates the uppercase image of Input: a diagonal transform
// encoder in the §4.7 style, mapping 'a'..'z' to 'A'..'Z' per position.
type ToUpper struct {
	Input string
	A     float64
}

// Name implements Constraint.
func (c *ToUpper) Name() string { return "toupper" }

// NumVars implements Constraint.
func (c *ToUpper) NumVars() int { return ascii7.NumVars(len(c.Input)) }

// BuildModel implements Constraint.
func (c *ToUpper) BuildModel() (*qubo.Model, error) {
	if err := requireASCII(c.Name(), "input", c.Input); err != nil {
		return nil, err
	}
	m := qubo.New(c.NumVars())
	a := coeff(c.A)
	for pos := 0; pos < len(c.Input); pos++ {
		addCharTarget(m, pos, upperByte(c.Input[pos]), a)
	}
	return m, nil
}

// Decode implements Constraint.
func (c *ToUpper) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint.
func (c *ToUpper) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: toupper expects a string witness", ErrCheckFailed)
	}
	want := mapBytes(c.Input, upperByte)
	if w.Str != want {
		return fmt.Errorf("%w: got %q, want %q", ErrCheckFailed, w.Str, want)
	}
	return nil
}

// ToLower is the inverse transform of ToUpper.
type ToLower struct {
	Input string
	A     float64
}

// Name implements Constraint.
func (c *ToLower) Name() string { return "tolower" }

// NumVars implements Constraint.
func (c *ToLower) NumVars() int { return ascii7.NumVars(len(c.Input)) }

// BuildModel implements Constraint.
func (c *ToLower) BuildModel() (*qubo.Model, error) {
	if err := requireASCII(c.Name(), "input", c.Input); err != nil {
		return nil, err
	}
	m := qubo.New(c.NumVars())
	a := coeff(c.A)
	for pos := 0; pos < len(c.Input); pos++ {
		addCharTarget(m, pos, lowerByte(c.Input[pos]), a)
	}
	return m, nil
}

// Decode implements Constraint.
func (c *ToLower) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint.
func (c *ToLower) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: tolower expects a string witness", ErrCheckFailed)
	}
	want := mapBytes(c.Input, lowerByte)
	if w.Str != want {
		return fmt.Errorf("%w: got %q, want %q", ErrCheckFailed, w.Str, want)
	}
	return nil
}

func upperByte(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

func lowerByte(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b - 'A' + 'a'
	}
	return b
}

func mapBytes(s string, f func(byte) byte) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = f(s[i])
	}
	return string(out)
}

// Conjunction solves several same-length string constraints
// *simultaneously* by summing their QUBO terms into one model — the
// alternative to §4.12's sequential pipelining, possible whenever the
// constraints talk about the same variable. A witness must pass every
// member's Check.
//
// Caveat: additive merging is sound (the ground state of the sum
// minimizes the total violation) but not complete for arbitrary
// members — two constraints can each be satisfiable while the summed
// landscape's ground state satisfies neither exactly (the annealer finds
// a compromise, Check rejects it, the solver reports no model).
// Structural members (Palindrome, CharAt, PrefixOf/SuffixOf, Regex over
// disjoint windows) compose well; conflicting diagonal targets do not.
type Conjunction struct {
	Members []Constraint
}

// Name implements Constraint.
func (c *Conjunction) Name() string { return "conjunction" }

// NumVars implements Constraint.
func (c *Conjunction) NumVars() int {
	if len(c.Members) == 0 {
		return 0
	}
	return c.Members[0].NumVars()
}

// BuildModel implements Constraint.
func (c *Conjunction) BuildModel() (*qubo.Model, error) {
	if len(c.Members) == 0 {
		return nil, fmt.Errorf("core: %s: no members", c.Name())
	}
	n := c.Members[0].NumVars()
	models := make([]*qubo.Model, len(c.Members))
	for i, mem := range c.Members {
		if mem.NumVars() != n {
			return nil, fmt.Errorf("core: %s: member %d has %d variables, want %d",
				c.Name(), i, mem.NumVars(), n)
		}
		if _, isIdx := mem.(*Includes); isIdx {
			return nil, fmt.Errorf("core: %s: member %d (includes) has an index witness and cannot be merged", c.Name(), i)
		}
		m, err := mem.BuildModel()
		if err != nil {
			return nil, fmt.Errorf("core: %s: member %d (%s): %w", c.Name(), i, mem.Name(), err)
		}
		models[i] = m
	}
	return mergeAll(n, models), nil
}

// mergeAll sums models over n variables, in order, into one model
// sized for all of their couplers.
func mergeAll(n int, models []*qubo.Model) *qubo.Model {
	couplers := 0
	for _, m := range models {
		couplers += m.NumQuadratic()
	}
	merged := qubo.NewSized(n, couplers)
	for _, m := range models {
		merged.Merge(m, 1)
	}
	return merged
}

// StyleBias implements StyleBiased: the sum of the members' style
// biases (members without one contribute nothing).
func (c *Conjunction) StyleBias() (*qubo.Model, error) {
	n := c.NumVars()
	var models []*qubo.Model
	for i, mem := range c.Members {
		sb, ok := mem.(StyleBiased)
		if !ok {
			continue
		}
		m, err := sb.StyleBias()
		if err != nil {
			return nil, fmt.Errorf("core: %s: member %d (%s): %w", c.Name(), i, mem.Name(), err)
		}
		if m.N() != n {
			return nil, fmt.Errorf("core: %s: member %d has %d variables, want %d", c.Name(), i, m.N(), n)
		}
		models = append(models, m)
	}
	return mergeAll(n, models), nil
}

// Decode implements Constraint.
func (c *Conjunction) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint: every member must accept the witness.
func (c *Conjunction) Check(w Witness) error {
	for i, mem := range c.Members {
		if err := mem.Check(w); err != nil {
			return fmt.Errorf("conjunction member %d (%s): %w", i, mem.Name(), err)
		}
	}
	return nil
}
