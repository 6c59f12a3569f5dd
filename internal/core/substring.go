package core

import (
	"fmt"

	"qsmt/internal/ascii7"
	"qsmt/internal/qubo"
	"qsmt/internal/strtheory"
)

// SubstringMatch generates a string of Length characters containing Sub
// (§4.3). Following the paper exactly, the substring is encoded at every
// possible starting position with later windows *overwriting* earlier
// entries, so the final matrix pins every position: the unique ground
// state is Sub[0] repeated (Length−len(Sub)) times followed by Sub (the
// paper's example: "cat" in a 4-character string yields "ccat").
type SubstringMatch struct {
	Sub    string
	Length int
	A      float64
}

// Name implements Constraint.
func (c *SubstringMatch) Name() string { return "substring-match" }

// NumVars implements Constraint.
func (c *SubstringMatch) NumVars() int { return ascii7.NumVars(c.Length) }

// BuildModel implements Constraint.
func (c *SubstringMatch) BuildModel() (*qubo.Model, error) {
	if err := requireASCII(c.Name(), "substring", c.Sub); err != nil {
		return nil, err
	}
	if c.Length < len(c.Sub) {
		return nil, fmt.Errorf("%w: %s: substring %q longer than target length %d",
			ErrUnsatisfiable, c.Name(), c.Sub, c.Length)
	}
	a := coeff(c.A)
	if len(c.Sub) == 0 {
		// SMT-LIB: every string contains "" — any Length-character string
		// satisfies the constraint, so the encoding degenerates to the
		// soft printable bias (the same landscape AnyPrintable uses).
		m := qubo.NewSized(c.NumVars(), c.Length)
		for pos := 0; pos < c.Length; pos++ {
			addPrintableBias(m, pos, SoftFactor*a)
		}
		return m, nil
	}
	// Encode the substring at every feasible window; SetLinear gives the
	// paper's "overwrite previous entries" semantics.
	m := qubo.New(c.NumVars())
	for start := 0; start+len(c.Sub) <= c.Length; start++ {
		for k := 0; k < len(c.Sub); k++ {
			setCharTarget(m, start+k, c.Sub[k], a)
		}
	}
	return m, nil
}

// StyleBias implements StyleBiased: the printable bias of the
// empty-substring case, else nothing (every position is pinned).
func (c *SubstringMatch) StyleBias() (*qubo.Model, error) {
	m, err := c.BuildModel()
	if err != nil || len(c.Sub) == 0 {
		return m, err
	}
	return qubo.New(c.NumVars()), nil
}

// Decode implements Constraint.
func (c *SubstringMatch) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint. Any Length-character string containing Sub
// satisfies the original constraint, regardless of which window it uses.
func (c *SubstringMatch) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: substring-match expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.Length {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.Length)
	}
	if !strtheory.Contains(w.Str, c.Sub) {
		return fmt.Errorf("%w: %q does not contain %q", ErrCheckFailed, w.Str, c.Sub)
	}
	return nil
}

// IndexOf generates a string of Length characters with Sub pinned at
// position Index (§4.5). The pinned window gets strong entries (2A per
// the paper's example); every other position gets soft printable-bias
// entries (strength 0.1·A) so "other valid ASCII characters can be
// generated at those positions" — the soft landscape stays massively
// degenerate, which is why different reads return different filler
// characters (Table 1 row 5's "qphiqp").
type IndexOf struct {
	Sub    string
	Index  int
	Length int
	A      float64
}

// StrongFactor and SoftFactor are the paper's example multipliers for the
// pinned-window and filler entries.
const (
	StrongFactor = 2.0
	SoftFactor   = 0.1
)

// Name implements Constraint.
func (c *IndexOf) Name() string { return "indexof" }

// NumVars implements Constraint.
func (c *IndexOf) NumVars() int { return ascii7.NumVars(c.Length) }

// BuildModel implements Constraint.
func (c *IndexOf) BuildModel() (*qubo.Model, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	m := qubo.NewSized(c.NumVars(), c.freePositions())
	a := coeff(c.A)
	for pos := 0; pos < c.Length; pos++ {
		if c.pinned(pos) {
			addCharTarget(m, pos, c.Sub[pos-c.Index], StrongFactor*a)
		} else {
			addPrintableBias(m, pos, SoftFactor*a)
		}
	}
	return m, nil
}

// validate checks the substring and the window's range.
func (c *IndexOf) validate() error {
	if err := requireASCII(c.Name(), "substring", c.Sub); err != nil {
		return err
	}
	// An empty substring occurs at every index of [0, Length] (SMT-LIB
	// str.indexof semantics, including from == len(t)), so the range
	// check below is the only requirement: the pinned window is empty and
	// every position gets the soft filler bias.
	if c.Index < 0 || c.Index+len(c.Sub) > c.Length {
		return fmt.Errorf("%w: %s: window [%d,%d) outside string of length %d",
			ErrUnsatisfiable, c.Name(), c.Index, c.Index+len(c.Sub), c.Length)
	}
	return nil
}

// pinned reports whether pos lies in the pinned window.
func (c *IndexOf) pinned(pos int) bool { return pos >= c.Index && pos < c.Index+len(c.Sub) }

// freePositions counts the positions outside the pinned window, each
// of which carries the printable bias and its one coupler.
func (c *IndexOf) freePositions() int { return c.Length - len(c.Sub) }

// StyleBias implements StyleBiased: the filler positions' printable
// bias.
func (c *IndexOf) StyleBias() (*qubo.Model, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	m := qubo.NewSized(c.NumVars(), c.freePositions())
	for pos := 0; pos < c.Length; pos++ {
		if !c.pinned(pos) {
			addPrintableBias(m, pos, SoftFactor*coeff(c.A))
		}
	}
	return m, nil
}

// Decode implements Constraint.
func (c *IndexOf) Decode(x []Bit) (Witness, error) {
	if err := requireVars(x, c.NumVars()); err != nil {
		return Witness{}, err
	}
	return decodeString(x)
}

// Check implements Constraint: the witness must have the right length and
// carry Sub exactly at Index.
func (c *IndexOf) Check(w Witness) error {
	if w.Kind != WitnessString {
		return fmt.Errorf("%w: indexof expects a string witness", ErrCheckFailed)
	}
	if len(w.Str) != c.Length {
		return fmt.Errorf("%w: got length %d, want %d", ErrCheckFailed, len(w.Str), c.Length)
	}
	if strtheory.Substr(w.Str, c.Index, len(c.Sub)) != c.Sub {
		return fmt.Errorf("%w: %q does not contain %q at index %d", ErrCheckFailed, w.Str, c.Sub, c.Index)
	}
	return nil
}
