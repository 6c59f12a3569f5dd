package core

import (
	"fmt"

	"qsmt/internal/ascii7"
	"qsmt/internal/qubo"
	"qsmt/internal/strtheory"
)

// Palindrome generates a palindrome of exactly N characters (§4.10) — one
// of the two constraints the paper highlights as beyond z3's repertoire.
//
// For every mirrored character pair (j, N−1−j) and every bit b, the
// encoder adds the agreement gadget
//
//	A·(x_i + x_k − 2·x_i·x_k)   with i = 7j+b, k = 7(N−1−j)+b,
//
// which contributes 0 when the mirrored bits agree and +A when they
// differ, so the ground states are exactly the mirrored bit vectors. The
// middle character of an odd-length palindrome is unconstrained.
//
// Because *every* mirrored assignment is a ground state, the landscape is
// massively degenerate and each read decodes to a different palindrome
// ("we expect our palindrome generation would produce a different string
// every time, while still obeying the given constraints" — §5). With
// Printable set, a soft bias (strength SoftFactor·A) nudges every
// position into the readable range without breaking mirror symmetry.
type Palindrome struct {
	N         int
	A         float64
	Printable bool
}

// Name implements Constraint.
func (c *Palindrome) Name() string { return "palindrome" }

// NumVars implements Constraint.
func (c *Palindrome) NumVars() int { return ascii7.NumVars(c.N) }

// BuildModel implements Constraint.
func (c *Palindrome) BuildModel() (*qubo.Model, error) {
	if c.N < 0 {
		return nil, fmt.Errorf("core: %s: negative length", c.Name())
	}
	m := qubo.NewSized(c.NumVars(), c.N/2*ascii7.BitsPerChar+c.biasCouplers())
	a := coeff(c.A)
	for j := 0; j < c.N/2; j++ {
		for b := 0; b < ascii7.BitsPerChar; b++ {
			i := ascii7.BitIndex(j, b)
			k := ascii7.BitIndex(c.N-1-j, b)
			m.AddLinear(i, a)
			m.AddLinear(k, a)
			m.AddQuadratic(i, k, -2*a)
		}
	}
	if c.Printable {
		for j := 0; j < c.N; j++ {
			addPrintableBias(m, j, SoftFactor*a)
		}
	}
	return m, nil
}

// StyleBias implements StyleBiased: the printable bias of every
// position when Printable is set, else nothing.
func (c *Palindrome) StyleBias() (*qubo.Model, error) {
	if c.N < 0 {
		return nil, fmt.Errorf("core: %s: negative length", c.Name())
	}
	m := qubo.NewSized(c.NumVars(), c.biasCouplers())
	if c.Printable {
		for j := 0; j < c.N; j++ {
			addPrintableBias(m, j, SoftFactor*coeff(c.A))
		}
	}
	return m, nil
}

// biasCouplers is the printable bias's coupler count: one per position
// when Printable is set.
func (c *Palindrome) biasCouplers() int {
	if c.Printable {
		return c.N
	}
	return 0
}

// Decode implements Constraint.
func (c *Palindrome) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint.
func (c *Palindrome) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: palindrome expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.N {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.N)
	}
	if !strtheory.IsPalindrome(w.Str) {
		return fmt.Errorf("%w: %q is not a palindrome", ErrCheckFailed, w.Str)
	}
	return nil
}
