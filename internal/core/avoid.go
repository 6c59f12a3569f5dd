package core

import (
	"fmt"
	"strings"

	"qsmt/internal/ascii7"
	"qsmt/internal/hobo"
	"qsmt/internal/qubo"
)

// AvoidChars generates a printable string of exactly N characters that
// contains none of Chars — the first *negative* string constraint in the
// solver, and a formulation class the paper's quadratic encodings cannot
// express directly: "position p is exactly character c" is a degree-7
// product over the position's bits (every bit must match), so *charging*
// that event requires higher-order terms.
//
// The encoder builds, per position and forbidden character, the
// indicator polynomial A·Π_b l_b (l_b the matching literal for bit b of
// the character), then reduces the whole polynomial to QUBO form with
// Rosenberg quadratization (package hobo), appending auxiliary product
// variables after the 7N primary bit variables. A soft printable bias on
// every position keeps the ground manifold readable, exactly as in §4.5.
type AvoidChars struct {
	Chars []byte
	N     int
	A     float64
}

// Name implements Constraint.
func (c *AvoidChars) Name() string { return "avoid-chars" }

// build constructs the quadratization; deterministic for fixed fields.
func (c *AvoidChars) build() (*hobo.Quadratization, error) {
	if c.N < 0 {
		return nil, fmt.Errorf("core: %s: negative length", c.Name())
	}
	if len(c.Chars) == 0 {
		return nil, fmt.Errorf("core: %s: no characters to avoid", c.Name())
	}
	for _, ch := range c.Chars {
		if ch > ascii7.MaxCode {
			return nil, fmt.Errorf("core: %s: non-ASCII character %#x", c.Name(), ch)
		}
	}
	a := coeff(c.A)
	p := hobo.New(ascii7.NumVars(c.N))
	for pos := 0; pos < c.N; pos++ {
		for _, ch := range c.Chars {
			var posBits, negBits []int
			for b := 0; b < ascii7.BitsPerChar; b++ {
				i := ascii7.BitIndex(pos, b)
				if ascii7.CharBit(ch, b) == 1 {
					posBits = append(posBits, i)
				} else {
					negBits = append(negBits, i)
				}
			}
			p.AddProductTerm(a, posBits, negBits)
		}
	}
	return p.Quadratize(0), nil
}

// NumVars implements Constraint: 7N primary bits plus the auxiliaries
// the quadratization introduces (deterministic for fixed parameters).
func (c *AvoidChars) NumVars() int {
	q, err := c.build()
	if err != nil {
		return 0
	}
	return q.NumPrimary + q.NumAux()
}

// BuildModel implements Constraint.
func (c *AvoidChars) BuildModel() (*qubo.Model, error) {
	q, err := c.build()
	if err != nil {
		return nil, err
	}
	m := q.Model
	// Soft printable bias on the primary positions only.
	a := coeff(c.A)
	bias := qubo.NewSized(m.N(), c.N)
	for pos := 0; pos < c.N; pos++ {
		addPrintableBias(bias, pos, SoftFactor*a)
	}
	m.Merge(bias, 1)
	return m, nil
}

// Decode implements Constraint: the string lives in the primary prefix;
// auxiliary product variables are dropped.
func (c *AvoidChars) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x[:ascii7.NumVars(c.N)])
}

// Check implements Constraint: right length, printable, and free of
// every forbidden character.
func (c *AvoidChars) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: avoid-chars expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.N {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.N)
	}
	for i := 0; i < len(w.Str); i++ {
		if !ascii7.IsPrintable(w.Str[i]) {
			return fmt.Errorf("%w: character %d (%#x) is not printable", ErrCheckFailed, i, w.Str[i])
		}
	}
	for _, ch := range c.Chars {
		if strings.IndexByte(w.Str, ch) >= 0 {
			return fmt.Errorf("%w: %q contains forbidden character %q", ErrCheckFailed, w.Str, string(ch))
		}
	}
	return nil
}
