package core

import (
	"fmt"

	"qsmt/internal/ascii7"
	"qsmt/internal/qubo"
)

// Periodic generates a printable string of N characters that repeats
// with the given Period: s[i] = s[i+Period] for every valid i. It is
// built from the same bit-agreement gadget as the palindrome encoder
// (§4.10) — A·(x_i + x_k − 2·x_i·x_k) per tied bit pair — applied along
// the period lattice instead of the mirror, another instance of the
// "more formulations" direction of §6. A soft printable bias keeps the
// (massively degenerate) ground manifold readable.
//
// Period ≥ N yields no couplings (every string qualifies); Period 1
// forces all characters equal.
type Periodic struct {
	Period int
	N      int
	A      float64
}

// Name implements Constraint.
func (c *Periodic) Name() string { return "periodic" }

// NumVars implements Constraint.
func (c *Periodic) NumVars() int { return ascii7.NumVars(c.N) }

// BuildModel implements Constraint.
func (c *Periodic) BuildModel() (*qubo.Model, error) {
	if c.N < 0 {
		return nil, fmt.Errorf("core: %s: negative length", c.Name())
	}
	if c.Period <= 0 {
		return nil, fmt.Errorf("core: %s: period must be positive", c.Name())
	}
	// One coupler per tied bit pair plus one per position's bias.
	m := qubo.NewSized(c.NumVars(), max(c.N-c.Period, 0)*ascii7.BitsPerChar+c.N)
	a := coeff(c.A)
	for j := 0; j+c.Period < c.N; j++ {
		for b := 0; b < ascii7.BitsPerChar; b++ {
			i := ascii7.BitIndex(j, b)
			k := ascii7.BitIndex(j+c.Period, b)
			m.AddLinear(i, a)
			m.AddLinear(k, a)
			m.AddQuadratic(i, k, -2*a)
		}
	}
	for j := 0; j < c.N; j++ {
		addPrintableBias(m, j, SoftFactor*a)
	}
	return m, nil
}

// Decode implements Constraint.
func (c *Periodic) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint.
func (c *Periodic) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: periodic expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.N {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.N)
	}
	for i := 0; i+c.Period < len(w.Str); i++ {
		if w.Str[i] != w.Str[i+c.Period] {
			return fmt.Errorf("%w: %q breaks period %d at position %d", ErrCheckFailed, w.Str, c.Period, i)
		}
	}
	for i := 0; i < len(w.Str); i++ {
		if !ascii7.IsPrintable(w.Str[i]) {
			return fmt.Errorf("%w: character %d (%#x) is not printable", ErrCheckFailed, i, w.Str[i])
		}
	}
	return nil
}
