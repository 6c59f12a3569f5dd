package qubo

import "fmt"

// Compiled is an immutable adjacency view of a Model, laid out for the
// annealer's inner loop: a flat CSR triple (RowStart, NeighJ, NeighW),
// one contiguous arena per field, so a per-flip neighbour walk is a
// single sequential scan with no pointer chasing.
//
// Row i is NeighJ[RowStart[i]:RowStart[i+1]] with the matching NeighW
// range. Every coupler is stored twice, once in each endpoint's row, and
// each row lists its neighbours in ascending index order (the order of
// Model.Terms). Compiled values are safe for concurrent use.
type Compiled struct {
	N      int
	Linear []float64
	Offset float64

	// CSR adjacency. Indices are int32: a model with ≥2^31 variables or
	// couplers would not fit in memory long before overflowing these.
	RowStart []int32
	NeighJ   []int32
	NeighW   []float64
}

// Compile freezes the model into CSR form.
func (m *Model) Compile() *Compiled {
	terms := m.Terms()
	c := &Compiled{
		N:        m.n,
		Linear:   make([]float64, m.n),
		Offset:   m.offset,
		RowStart: make([]int32, m.n+1),
	}
	copy(c.Linear, m.diag)
	for _, t := range terms {
		c.RowStart[t.I+1]++
		c.RowStart[t.J+1]++
	}
	for i := 0; i < m.n; i++ {
		c.RowStart[i+1] += c.RowStart[i]
	}
	nnz := c.RowStart[m.n]
	c.NeighJ = make([]int32, nnz)
	c.NeighW = make([]float64, nnz)
	next := make([]int32, m.n)
	copy(next, c.RowStart)
	// Terms are sorted by (I, J), so row i receives its lower neighbours
	// (terms (h, i), h < i) before its upper ones, each in ascending order.
	for _, t := range terms {
		p := next[t.I]
		c.NeighJ[p], c.NeighW[p] = int32(t.J), t.W
		next[t.I]++
		p = next[t.J]
		c.NeighJ[p], c.NeighW[p] = int32(t.I), t.W
		next[t.J]++
	}
	return c
}

// Energy evaluates E(x). len(x) must equal N.
func (c *Compiled) Energy(x []Bit) float64 {
	if len(x) != c.N {
		panic(fmt.Sprintf("qubo: assignment length %d != %d variables", len(x), c.N))
	}
	e := c.Offset
	for i, h := range c.Linear {
		if x[i] != 0 {
			e += h
		}
	}
	for i := 0; i < c.N; i++ {
		if x[i] == 0 {
			continue
		}
		for p := c.RowStart[i]; p < c.RowStart[i+1]; p++ {
			if j := int(c.NeighJ[p]); j > i && x[j] != 0 { // count each coupler once
				e += c.NeighW[p]
			}
		}
	}
	return e
}

// FlipDelta returns E(x with bit i flipped) − E(x) without mutating x,
// in O(degree(i)). The kernels keep incremental fields instead; tests
// and benchmarks use FlipDelta as their reference.
func (c *Compiled) FlipDelta(x []Bit, i int) float64 {
	// Local field at i: h_i + Σ_j W_ij x_j.
	field := c.Linear[i]
	for p := c.RowStart[i]; p < c.RowStart[i+1]; p++ {
		if x[c.NeighJ[p]] != 0 {
			field += c.NeighW[p]
		}
	}
	if x[i] == 0 { // 0 -> 1 adds the field
		return field
	}
	return -field // 1 -> 0 removes it
}

// Degree returns the number of couplers incident to variable i.
func (c *Compiled) Degree(i int) int { return int(c.RowStart[i+1] - c.RowStart[i]) }
