// Package qubo implements the Quadratic Unconstrained Binary Optimization
// model that every string constraint in this solver compiles to.
//
// A QUBO over n binary variables x ∈ {0,1}^n is the objective
//
//	E(x) = Σ_i Q_ii·x_i + Σ_{i<j} Q_ij·x_i·x_j + offset
//
// stored here as a linear (diagonal) vector plus an upper-triangular sparse
// map of quadratic couplers. Minimizing E over bitstrings is the job of the
// samplers in package anneal; this package only defines the model, its
// energy semantics, conversions, and formatting.
package qubo

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Bit is a binary variable value, 0 or 1.
type Bit = uint8

// key is an upper-triangular index pair (I < J).
type key struct{ I, J int }

// Model is a QUBO instance. The zero value is unusable; construct with New.
// Models are not safe for concurrent mutation, but read-only use (Energy,
// Compile, printing) may be shared across goroutines.
type Model struct {
	n      int
	diag   []float64
	quad   map[key]float64
	offset float64
}

// New returns an empty QUBO model over n binary variables.
func New(n int) *Model {
	return NewSized(n, 0)
}

// NewSized is New with the coupler storage sized for couplers entries.
// The size is a hint: a model built by an encoder that knows its
// coupler count up front skips the storage's incremental growth, and
// the model may still take more couplers than the hint.
func NewSized(n, couplers int) *Model {
	if n < 0 {
		panic(fmt.Sprintf("qubo: negative variable count %d", n))
	}
	return &Model{
		n:    n,
		diag: make([]float64, n),
		quad: make(map[key]float64, couplers),
	}
}

// N returns the number of binary variables.
func (m *Model) N() int { return m.n }

// Offset returns the constant energy offset.
func (m *Model) Offset() float64 { return m.offset }

// AddOffset adds a constant to the energy of every configuration.
func (m *Model) AddOffset(v float64) { m.offset += v }

// check panics on an out-of-range index; encoder bugs should fail loudly.
func (m *Model) check(i int) {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("qubo: variable index %d out of range [0,%d)", i, m.n))
	}
}

// AddLinear adds v to the diagonal coefficient Q_ii.
func (m *Model) AddLinear(i int, v float64) {
	m.check(i)
	m.diag[i] += v
}

// SetLinear sets the diagonal coefficient Q_ii, overwriting any previous
// value. Constraint encoders that "overwrite earlier entries" (substring
// matching, §4.3 of the paper) use this.
func (m *Model) SetLinear(i int, v float64) {
	m.check(i)
	m.diag[i] = v
}

// Linear returns the diagonal coefficient Q_ii.
func (m *Model) Linear(i int) float64 {
	m.check(i)
	return m.diag[i]
}

// AddQuadratic adds v to the coupler Q_ij (i ≠ j). The pair is normalized
// to upper-triangular storage, so AddQuadratic(3,1,v) and
// AddQuadratic(1,3,v) accumulate into the same entry.
func (m *Model) AddQuadratic(i, j int, v float64) {
	m.check(i)
	m.check(j)
	if i == j {
		panic("qubo: AddQuadratic called with i == j; use AddLinear")
	}
	if i > j {
		i, j = j, i
	}
	k := key{i, j}
	nv := m.quad[k] + v
	if nv == 0 {
		delete(m.quad, k)
		return
	}
	m.quad[k] = nv
}

// SetQuadratic sets the coupler Q_ij, overwriting any previous value.
func (m *Model) SetQuadratic(i, j int, v float64) {
	m.check(i)
	m.check(j)
	if i == j {
		panic("qubo: SetQuadratic called with i == j; use SetLinear")
	}
	if i > j {
		i, j = j, i
	}
	k := key{i, j}
	if v == 0 {
		delete(m.quad, k)
		return
	}
	m.quad[k] = v
}

// Quadratic returns the coupler Q_ij (0 when absent).
func (m *Model) Quadratic(i, j int) float64 {
	m.check(i)
	m.check(j)
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return m.quad[key{i, j}]
}

// NumQuadratic returns the number of nonzero couplers.
func (m *Model) NumQuadratic() int { return len(m.quad) }

// Energy evaluates E(x) for an assignment. len(x) must equal N().
func (m *Model) Energy(x []Bit) float64 {
	if len(x) != m.n {
		panic(fmt.Sprintf("qubo: assignment length %d != %d variables", len(x), m.n))
	}
	e := m.offset
	for i, q := range m.diag {
		if x[i] != 0 {
			e += q
		}
	}
	for k, w := range m.quad {
		if x[k.I] != 0 && x[k.J] != 0 {
			e += w
		}
	}
	return e
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := New(m.n)
	copy(c.diag, m.diag)
	for k, v := range m.quad {
		c.quad[k] = v
	}
	c.offset = m.offset
	return c
}

// Merge adds every coefficient of other, scaled by weight, into m.
// Both models must have the same variable count. Merge is how composite
// constraints (objective + penalty terms) are assembled.
func (m *Model) Merge(other *Model, weight float64) {
	if other.n != m.n {
		panic(fmt.Sprintf("qubo: merge size mismatch %d != %d", other.n, m.n))
	}
	for i, v := range other.diag {
		if v != 0 {
			m.AddLinear(i, weight*v)
		}
	}
	for k, v := range other.quad {
		m.AddQuadratic(k.I, k.J, weight*v)
	}
	m.offset += weight * other.offset
}

// MergeMapped adds every coefficient of other, scaled by weight, into m
// with other's variable i landing on m's variable idx(i). It is how an
// objective model over a subset of the combined optimize space (primary
// string bits plus remapped auxiliary variables) is layered onto a hard
// model of a different size. idx must be injective into [0, m.N()).
func (m *Model) MergeMapped(other *Model, weight float64, idx func(int) int) {
	for i, v := range other.diag {
		if v != 0 {
			m.AddLinear(idx(i), weight*v)
		}
	}
	for k, v := range other.quad {
		m.AddQuadratic(idx(k.I), idx(k.J), weight*v)
	}
	m.offset += weight * other.offset
}

// Dense materializes the full symmetric-free upper-triangular matrix with
// diagonal entries. Intended for printing and small models only; the
// result is N×N.
func (m *Model) Dense() [][]float64 {
	out := make([][]float64, m.n)
	row := make([]float64, m.n*m.n)
	for i := range out {
		out[i], row = row[:m.n], row[m.n:]
		out[i][i] = m.diag[i]
	}
	for k, v := range m.quad {
		out[k.I][k.J] = v
	}
	return out
}

// Terms returns the nonzero quadratic terms in deterministic (row-major)
// order. Used by serialization, printing, and Compile.
func (m *Model) Terms() []QuadTerm {
	out := make([]QuadTerm, 0, len(m.quad))
	for k, v := range m.quad {
		out = append(out, QuadTerm{I: k.I, J: k.J, W: v})
	}
	slices.SortFunc(out, func(a, b QuadTerm) int {
		if a.I != b.I {
			return cmp.Compare(a.I, b.I)
		}
		return cmp.Compare(a.J, b.J)
	})
	return out
}

// QuadTerm is one off-diagonal entry Q_IJ = W with I < J.
type QuadTerm struct {
	I, J int
	W    float64
}

// MaxAbsCoefficient returns the largest |coefficient| in the model
// (ignoring the offset). Used to scale annealing temperature ranges.
func (m *Model) MaxAbsCoefficient() float64 {
	max := 0.0
	for _, v := range m.diag {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	for _, v := range m.quad {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// MinAbsNonzero returns the smallest nonzero |coefficient|, or 0 when the
// model is entirely zero.
func (m *Model) MinAbsNonzero() float64 {
	min := math.Inf(1)
	seen := false
	consider := func(v float64) {
		if v == 0 {
			return
		}
		seen = true
		if a := math.Abs(v); a < min {
			min = a
		}
	}
	for _, v := range m.diag {
		consider(v)
	}
	for _, v := range m.quad {
		consider(v)
	}
	if !seen {
		return 0
	}
	return min
}
