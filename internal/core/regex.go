package core

import (
	"fmt"
	"sync/atomic"

	"qsmt/internal/ascii7"
	"qsmt/internal/qubo"
	"qsmt/internal/regexlite"
)

// Regex generates a string of exactly Length characters matching Pattern
// (§4.11). The supported pattern subset is the paper's: literals,
// character classes, and '+' (see package regexlite).
//
// The pattern is first expanded to one admissible character set per
// position ("we consider the plus constraint as a literal when it appears
// after a literal, and a character class when it appears after a
// character class"). Each position then receives one of two objectives:
//
//   - literal (singleton set): the equality-style ±A diagonal encoding;
//   - character class: the class members' encodings averaged — each
//     member contributes its ±A bit pattern scaled by 1/|chars|, the
//     paper's Σ_{i∈chars} Σ_j (q_{i,j}/|chars|)·x.
//
// Caveat reproduced from the paper's formulation: the averaged encoding's
// ground state is per-bit majority vote over the class, which for some
// classes admits characters *outside* the class (e.g. [ad] frees two bits
// and can decode to '`' or 'e'). Check catches such decodes against the
// real matcher, and the solver's verify-retry loop rejects them; classes
// whose majority pattern is itself wrong are reported unsatisfied rather
// than silently mis-solved.
type Regex struct {
	Pattern string
	Length  int
	A       float64

	// parsed caches the parsed Pattern for Check, which runs once per
	// decoded candidate. It is keyed by the pattern text, so a changed
	// Pattern field is re-parsed; concurrent Checks share it race-free.
	parsed atomic.Pointer[regexlite.Pattern]
}

// pattern returns the parsed Pattern, parsing it on first use.
func (c *Regex) pattern() (*regexlite.Pattern, error) {
	if p := c.parsed.Load(); p != nil && p.Source() == c.Pattern {
		return p, nil
	}
	p, err := regexlite.Parse(c.Pattern)
	if err != nil {
		return nil, err
	}
	c.parsed.Store(p)
	return p, nil
}

// Name implements Constraint.
func (c *Regex) Name() string { return "regex" }

// NumVars implements Constraint.
func (c *Regex) NumVars() int { return ascii7.NumVars(c.Length) }

// BuildModel implements Constraint.
func (c *Regex) BuildModel() (*qubo.Model, error) {
	pat, err := c.pattern()
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", c.Name(), err)
	}
	spec, err := pat.Expand(c.Length)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnsatisfiable, c.Name(), err)
	}
	m := qubo.New(c.NumVars())
	a := coeff(c.A)
	for pos, ps := range spec {
		share := a / float64(len(ps.Chars))
		for _, ch := range ps.Chars {
			addCharTarget(m, pos, ch, share)
		}
	}
	return m, nil
}

// Decode implements Constraint.
func (c *Regex) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint: the witness must have the exact length and
// match the pattern under the real (classical) matcher.
func (c *Regex) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: regex expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.Length {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.Length)
	}
	pat, err := c.pattern()
	if err != nil {
		return fmt.Errorf("core: %s: %w", c.Name(), err)
	}
	if !pat.Match(w.Str) {
		return fmt.Errorf("%w: %q does not match /%s/", ErrCheckFailed, w.Str, c.Pattern)
	}
	return nil
}
