package core

import (
	"fmt"

	"qsmt/internal/ascii7"
	"qsmt/internal/qubo"
)

// AnyPrintable generates an arbitrary printable string of exactly N
// characters. It is the degenerate case of the paper's soft constraints
// (§4.5 with an empty pinned window): every position carries only the
// printable bias, so the ground manifold is huge and each read decodes
// to a different readable string. The SMT front end uses it for string
// variables constrained only by their length.
type AnyPrintable struct {
	N int
	A float64
}

// Name implements Constraint.
func (c *AnyPrintable) Name() string { return "any-printable" }

// NumVars implements Constraint.
func (c *AnyPrintable) NumVars() int { return ascii7.NumVars(c.N) }

// BuildModel implements Constraint.
func (c *AnyPrintable) BuildModel() (*qubo.Model, error) {
	if c.N < 0 {
		return nil, fmt.Errorf("core: %s: negative length", c.Name())
	}
	m := qubo.NewSized(c.NumVars(), c.N)
	a := coeff(c.A)
	for pos := 0; pos < c.N; pos++ {
		addPrintableBias(m, pos, SoftFactor*a)
	}
	return m, nil
}

// Decode implements Constraint.
func (c *AnyPrintable) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint: right length, all characters printable.
func (c *AnyPrintable) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: any-printable expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.N {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.N)
	}
	for i := 0; i < len(w.Str); i++ {
		if !ascii7.IsPrintable(w.Str[i]) {
			return fmt.Errorf("%w: character %d (%#x) is not printable", ErrCheckFailed, i, w.Str[i])
		}
	}
	return nil
}
