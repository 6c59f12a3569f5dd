package anneal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"qsmt/internal/qubo"
)

// MaxExactVars bounds exhaustive enumeration: 2^28 states with an O(degree)
// incremental update is the practical ceiling for a validation pass.
const MaxExactVars = 28

// ExactSolver enumerates every assignment and returns the true ground
// state(s). It exists to validate annealer outputs on small models (the
// paper's Table 1 instances with short strings fit) and to measure
// ground-state hit rates exactly.
type ExactSolver struct {
	// Tol widens the returned set to every state within Tol of the
	// minimum energy (0 returns only ground states). States within
	// TieTolerance of the minimum always count as ground states: the
	// Gray walk sums FlipDelta steps, so true ties drift apart by
	// rounding error.
	Tol float64
	// MaxStates caps how many (near-)ground states are returned
	// (default 64; the minimum-energy state is always included).
	MaxStates int
	// Workers splits the search space across goroutines by fixing the
	// top bits (default GOMAXPROCS).
	Workers int
}

// Sample implements the sampler contract. Occurrences is 1 for every
// returned state.
func (ex *ExactSolver) Sample(c *qubo.Compiled) (*SampleSet, error) {
	return ex.SampleContext(context.Background(), c)
}

// SampleContext enumerates under ctx, checking for cancellation every
// few thousand states inside each enumeration block.
func (ex *ExactSolver) SampleContext(ctx context.Context, c *qubo.Compiled) (*SampleSet, error) {
	if c == nil {
		return nil, errors.New("anneal: nil model")
	}
	if err := ctx.Err(); err != nil {
		return nil, abortErr(err)
	}
	if c.N > MaxExactVars {
		return nil, fmt.Errorf("anneal: exact solve of %d variables exceeds limit %d", c.N, MaxExactVars)
	}
	if c.N == 0 {
		return &SampleSet{Samples: []Sample{{X: []Bit{}, Energy: c.Offset, Occurrences: 1}}}, nil
	}
	maxStates := ex.MaxStates
	if maxStates <= 0 {
		maxStates = 64
	}

	// Split on the top `split` bits; each worker enumerates the rest in
	// Gray-code order with O(degree) incremental energy updates.
	split := 0
	for (1 << split) < 4*maxInt(ex.Workers, 1) {
		split++
	}
	if split > c.N-1 {
		split = maxInt(c.N-1, 0)
	}
	blocks := 1 << split
	low := c.N - split // number of Gray-enumerated bits

	results := make([]blockResult, blocks)
	parallelForCtx(ctx, blocks, ex.Workers, func(b int) {
		results[b] = enumerateBlock(ctx, c, b, split, low, ex.Tol, maxStates)
	})
	if err := ctx.Err(); err != nil {
		return nil, abortErr(err)
	}

	// Merge: global minimum first, then states within Tol.
	best := math.Inf(1)
	for _, r := range results {
		if r.min < best {
			best = r.min
		}
	}
	tol := ex.Tol + TieTolerance(best)
	var raw []Sample
	for _, r := range results {
		for _, s := range r.states {
			if s.Energy-best <= tol {
				raw = append(raw, s)
			}
		}
	}
	ss := aggregate(raw)
	if len(ss.Samples) > maxStates {
		ss.Samples = ss.Samples[:maxStates]
	}
	return ss, nil
}

type blockResult struct {
	min    float64
	states []Sample
}

// enumerateBlock fixes the top `split` bits to the binary expansion of
// block and walks all 2^low assignments of the remaining bits in Gray-code
// order.
func enumerateBlock(ctx context.Context, c *qubo.Compiled, block, split, low int, tol float64, maxStates int) blockResult {
	x := make([]Bit, c.N)
	for b := 0; b < split; b++ {
		x[low+b] = Bit((block >> b) & 1)
	}
	e := c.Energy(x)
	res := blockResult{min: e}
	cut := tol + TieTolerance(e)
	record := func() {
		if e < res.min {
			res.min = e
			cut = tol + TieTolerance(e)
		}
		if e-res.min <= cut {
			cp := make([]Bit, len(x))
			copy(cp, x)
			res.states = append(res.states, Sample{X: cp, Energy: e, Occurrences: 1})
			// Opportunistic pruning keeps memory bounded; the final
			// merge re-filters against the global minimum.
			if len(res.states) > 4*maxStates {
				res.states = pruneStates(res.states, res.min, tol, maxStates)
			}
		}
	}
	record()
	total := uint64(1) << low
	for k := uint64(1); k < total; k++ {
		if k&0x1fff == 0 && ctx.Err() != nil {
			break // partial block; the caller's ctx check discards it
		}
		i := bits.TrailingZeros64(k) // Gray code: flip the lowest set-bit position
		e += c.FlipDelta(x, i)
		x[i] ^= 1
		record()
	}
	res.states = pruneStates(res.states, res.min, tol, maxStates)
	return res
}

func pruneStates(states []Sample, min, tol float64, maxStates int) []Sample {
	tol += TieTolerance(min)
	kept := states[:0]
	for _, s := range states {
		if s.Energy-min <= tol {
			kept = append(kept, s)
		}
	}
	if len(kept) > 2*maxStates {
		// Keep the lowest energies; order within the block is arbitrary,
		// the global aggregate sorts properly.
		agg := aggregate(kept)
		kept = agg.Samples[:2*maxStates]
	}
	return kept
}

// TieTolerance is the energy gap near e below which two states count as
// tied: 1e-9 relative to e's magnitude (absolute below 1). Rounding
// drift in summed energies is about 1e-13 on the penalty models; real
// coefficient gaps are many orders larger.
func TieTolerance(e float64) float64 {
	return 1e-9 * math.Max(1, math.Abs(e))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
