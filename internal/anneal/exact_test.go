package anneal

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"qsmt/internal/qubo"
)

// steppedModel draws a model whose coefficients are multiples of 0.1:
// sums like 0.1+0.2 round differently along different paths, so tied
// states are common and their summed energies drift apart.
func steppedModel(rng *rand.Rand, n int, density float64) *qubo.Model {
	m := qubo.New(n)
	step := func() float64 { return float64(rng.Intn(11)-5) / 10 }
	for i := 0; i < n; i++ {
		m.AddLinear(i, step())
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				m.AddQuadratic(i, j, step())
			}
		}
	}
	return m
}

// exactReference is the per-state brute force the enumerator must
// reproduce: every assignment scored by c.Energy, the states within
// tol of the minimum (plus TieTolerance) ordered by energy and then
// bit string, truncated to maxStates.
func exactReference(c *qubo.Compiled, tol float64, maxStates int) []Sample {
	type state struct {
		key uint64 // bit i is x_i
		e   float64
	}
	x := make([]Bit, c.N)
	all := make([]state, 0, 1<<c.N)
	best := math.Inf(1)
	for key := uint64(0); key < 1<<c.N; key++ {
		unpackKey(key, x)
		e := c.Energy(x)
		all = append(all, state{key, e})
		best = math.Min(best, e)
	}
	cut := best + tol + TieTolerance(best)
	var kept []state
	for _, s := range all {
		if s.e <= cut {
			kept = append(kept, s)
		}
	}
	// Bit-string order read from x_0 is the order of the reversed keys.
	sort.Slice(kept, func(a, b int) bool {
		if kept[a].e != kept[b].e {
			return kept[a].e < kept[b].e
		}
		return bits.Reverse64(kept[a].key) < bits.Reverse64(kept[b].key)
	})
	if len(kept) > maxStates {
		kept = kept[:maxStates]
	}
	out := make([]Sample, len(kept))
	for i, s := range kept {
		out[i] = Sample{X: make([]Bit, c.N), Energy: s.e, Occurrences: 1}
		unpackKey(s.key, out[i].X)
	}
	return out
}

func sameSamples(a, b []Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Energy != b[i].Energy || a[i].Occurrences != b[i].Occurrences || bitString(a[i].X) != bitString(b[i].X) {
			return false
		}
	}
	return true
}

func bitString(x []Bit) string {
	b := make([]byte, len(x))
	for i, v := range x {
		b[i] = '0' + v
	}
	return string(b)
}

// TestExactSolverWorkerCountInvariant pins the enumerator's result as a
// function of the model alone: Workers 1, 2 and 4 return identical
// samples, energies bit for bit and tied states in the same order. The
// last model is degenerate, with far more tied ground states than four
// times MaxStates, so the per-block pruning truncates ties.
func TestExactSolverWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var models []*qubo.Compiled
	for trial := 0; trial < 300; trial++ {
		models = append(models, steppedModel(rng, 4+rng.Intn(12), 0.3).Compile())
	}
	// Σ x_i·x_{i+1} on a 16-path: every independent set (2584 of them)
	// is a ground state at energy 0.
	path := qubo.New(16)
	for i := 0; i+1 < 16; i++ {
		path.AddQuadratic(i, i+1, 0.1)
	}
	models = append(models, path.Compile())
	for trial, c := range models {
		want, err := (&ExactSolver{Workers: 1, MaxStates: 16}).Sample(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			got, err := (&ExactSolver{Workers: w, MaxStates: 16}).Sample(c)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSamples(got.Samples, want.Samples) {
				t.Fatalf("model %d (n=%d): Workers %d returned %v, Workers 1 %v", trial, c.N, w, got.Samples, want.Samples)
			}
		}
	}
}

// FuzzExactSolver checks the split-table enumerator against the
// per-state brute force on models of 0–18 variables (both sides of the
// table split), including all-zero models with 2^n ties, Tol > 0 and
// MaxStates 1.
func FuzzExactSolver(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0), uint8(0), uint8(1), false)
	f.Add(uint8(7), int64(2), uint8(0), uint8(1), uint8(1), false)
	f.Add(uint8(10), int64(3), uint8(2), uint8(5), uint8(2), false)
	f.Add(uint8(11), int64(4), uint8(0), uint8(16), uint8(4), false)
	f.Add(uint8(11), int64(5), uint8(0), uint8(1), uint8(3), true)
	f.Add(uint8(14), int64(6), uint8(3), uint8(0), uint8(2), false)
	f.Add(uint8(16), int64(7), uint8(0), uint8(8), uint8(4), true)
	f.Add(uint8(18), int64(8), uint8(1), uint8(16), uint8(1), false)
	f.Fuzz(func(t *testing.T, nb uint8, seed int64, tolSteps, maxStates, workers uint8, zero bool) {
		n := int(nb % 19)
		m := qubo.New(n)
		if !zero {
			m = steppedModel(rand.New(rand.NewSource(seed)), n, 0.25)
		}
		c := m.Compile()
		ex := &ExactSolver{Tol: float64(tolSteps%4) / 10, MaxStates: int(maxStates % 70), Workers: 1 + int(workers%4)}
		got, err := ex.Sample(c)
		if err != nil {
			t.Fatal(err)
		}
		limit := ex.MaxStates
		if limit == 0 {
			limit = 64
		}
		want := exactReference(c, ex.Tol, limit)
		if !sameSamples(got.Samples, want) {
			t.Fatalf("n=%d tol=%g maxStates=%d workers=%d:\n got %v\nwant %v", n, ex.Tol, ex.MaxStates, ex.Workers, got.Samples, want)
		}
	})
}
