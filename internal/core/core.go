// Package core implements the paper's primary contribution: QUBO
// encodings of string constraints (§4.1–§4.12 of "Quantum-Based SMT
// Solving for String Theory", HPDC'25).
//
// Every constraint compiles to a qubo.Model whose ground states decode —
// via the 7-bit ASCII codec in package ascii7 — to strings (or, for the
// Includes constraint, to a match position) satisfying the constraint.
// Constraints carry their own Decode and Check: Decode maps a sampler's
// bitstring back into the string theory, and Check validates the result
// against the reference semantics in package strtheory. Check is the
// "transform back to the original theory and check for consistency" step
// of the classical SMT loop; the solve-retry loop itself lives in the
// public qsmt package.
//
// Unless a constraint documents otherwise, the penalty strength A is 1,
// the value the paper reports working best with its simulated annealer.
package core

import (
	"errors"
	"fmt"

	"qsmt/internal/ascii7"
	"qsmt/internal/qubo"
)

// Bit aliases the QUBO binary variable value type.
type Bit = qubo.Bit

// DefaultA is the paper's penalty strength ("our coefficients are A = 1
// for all formulations").
const DefaultA = 1.0

// WitnessKind discriminates what a constraint's Decode produces.
type WitnessKind int

const (
	// WitnessString means the witness is a generated string.
	WitnessString WitnessKind = iota
	// WitnessIndex means the witness is a match position (Includes).
	WitnessIndex
)

// Witness is a decoded sampler output, back in string-theory terms.
type Witness struct {
	Kind  WitnessKind
	Str   string
	Index int
}

func (w Witness) String() string {
	if w.Kind == WitnessIndex {
		return fmt.Sprintf("index %d", w.Index)
	}
	return fmt.Sprintf("%q", w.Str)
}

// Constraint is one string constraint compiled to QUBO form.
type Constraint interface {
	// Name identifies the constraint kind (e.g. "equality").
	Name() string
	// NumVars returns the number of binary variables in the QUBO.
	NumVars() int
	// BuildModel constructs the QUBO. Implementations return a fresh
	// model on every call; callers may mutate the result.
	BuildModel() (*qubo.Model, error)
	// Decode maps a sampler assignment back into string-theory terms.
	Decode(x []Bit) (Witness, error)
	// Check validates a witness against the reference semantics,
	// returning nil when the witness satisfies the constraint.
	Check(w Witness) error
}

// ErrUnsatisfiable is wrapped by constraints that can prove, at
// construction or check time, that no witness exists.
var ErrUnsatisfiable = errors.New("core: constraint is unsatisfiable")

// ErrCheckFailed is wrapped by Check implementations when a decoded
// witness does not satisfy the constraint.
var ErrCheckFailed = errors.New("core: witness fails constraint")

// coeff returns the effective penalty strength: a when positive,
// otherwise DefaultA.
func coeff(a float64) float64 {
	if a > 0 {
		return a
	}
	return DefaultA
}

// addCharTarget adds the equality-style diagonal encoding of character c
// at string position pos with strength a: −a on bits that must be 1, +a
// on bits that must be 0 (§4.1).
func addCharTarget(m *qubo.Model, pos int, c byte, a float64) {
	for b := 0; b < ascii7.BitsPerChar; b++ {
		i := ascii7.BitIndex(pos, b)
		if ascii7.CharBit(c, b) == 1 {
			m.AddLinear(i, -a)
		} else {
			m.AddLinear(i, a)
		}
	}
}

// setCharTarget is addCharTarget with overwrite semantics (SetLinear),
// used by the substring-matching encoder whose windows deliberately
// clobber earlier entries (§4.3).
func setCharTarget(m *qubo.Model, pos int, c byte, a float64) {
	for b := 0; b < ascii7.BitsPerChar; b++ {
		i := ascii7.BitIndex(pos, b)
		if ascii7.CharBit(c, b) == 1 {
			m.SetLinear(i, -a)
		} else {
			m.SetLinear(i, a)
		}
	}
}

// addPrintableBias nudges an otherwise-unconstrained character position
// toward readable output with soft (strength s) terms:
//
//   - a floor penalty s·(1−x₀)(1−x₁) that charges characters below 0x20
//     (both top bits clear), expanded to s − s·x₀ − s·x₁ + s·x₀x₁;
//   - a weak −s preference on the top bit, favoring the letter range.
//
// This realizes §4.5's "softer constraints … such that other valid ASCII
// characters can be generated": five low bits stay completely free, so
// ground states remain massively degenerate and different reads decode to
// different readable characters.
func addPrintableBias(m *qubo.Model, pos int, s float64) {
	b0 := ascii7.BitIndex(pos, 0)
	b1 := ascii7.BitIndex(pos, 1)
	m.AddOffset(s)
	m.AddLinear(b0, -s)
	m.AddLinear(b1, -s)
	m.AddQuadratic(b0, b1, s)
	m.AddLinear(b0, -s)
}

// StyleBiased is implemented by the encoders whose model adds the
// printable bias on positions their Check leaves free (Palindrome with
// Printable, IndexOf and the encoders built on it, SubstringMatch with
// an empty Sub). StyleBias returns exactly those terms as a model over
// the same variables, so BuildModel minus StyleBias is the part that
// Check enforces; the optimize mode scales only that part by its hard
// weight. Encoders whose Check requires printable characters
// (AnyPrintable, Periodic, AvoidChars) keep their bias in the enforced
// part and do not implement it.
type StyleBiased interface {
	StyleBias() (*qubo.Model, error)
}

// decodeString decodes a full assignment as a string witness.
func decodeString(x []Bit) (Witness, error) {
	s, err := ascii7.Decode(x)
	if err != nil {
		return Witness{}, err
	}
	return Witness{Kind: WitnessString, Str: s}, nil
}

// requireVars validates an assignment length.
func requireVars(x []Bit, want int) error {
	if len(x) != want {
		return fmt.Errorf("core: assignment has %d variables, want %d", len(x), want)
	}
	return nil
}

// requireASCII validates that every byte of a constraint parameter is
// 7-bit clean; encoders call it at build time so errors carry the
// constraint name.
func requireASCII(name, field, s string) error {
	if !ascii7.AllASCII(s) {
		return fmt.Errorf("core: %s: %s %q contains non-ASCII bytes", name, field, s)
	}
	return nil
}
