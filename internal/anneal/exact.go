package anneal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"qsmt/internal/qubo"
)

// MaxExactVars bounds exhaustive enumeration: states are packed into
// uint64 keys, and 2^28 table-scored states is the practical ceiling for
// a validation pass.
const MaxExactVars = 28

// exactTableBits is the width of the split table: the lowest
// min(N, exactTableBits) variables are scored from per-solve tables, so
// the walk over the remaining variables pays one adjacency scan per
// 2^exactTableBits states.
const exactTableBits = 10

// ExactSolver enumerates every assignment and returns the true ground
// state(s). It exists to validate annealer outputs on small models (the
// paper's Table 1 instances with short strings fit) and to measure
// ground-state hit rates exactly.
//
// The result is a function of the model alone: every returned energy is
// c.Energy(x), and equal energies are ordered by bit string, so Workers
// changes only the speed.
type ExactSolver struct {
	// Tol widens the returned set to every state within Tol of the
	// minimum energy (0 returns only ground states). States within
	// TieTolerance of the minimum always count as ground states: the
	// enumeration's table sums and c.Energy's summation order round
	// differently, so true ties can differ in their last bits.
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

	// The lowest k bits are scored from tables; the remaining high bits
	// are walked in Gray order, the top `split` of them fixed per block
	// so blocks can run on separate workers.
	t := newSplitTable(c)
	defer tablePool.Put(t.buf)
	workers := ex.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	split := 0
	if workers > 1 {
		for (1 << split) < 4*workers {
			split++
		}
	}
	if high := c.N - t.k; split > high {
		split = high
	}

	results := make([]blockResult, 1<<split)
	parallelForCtx(ctx, len(results), workers, func(b int) {
		results[b] = t.enumerate(ctx, c, b, split, ex.Tol, maxStates)
	})
	if err := ctx.Err(); err != nil {
		return nil, abortErr(err)
	}

	// Merge on canonical energies: global minimum first, then the states
	// within Tol of it, in sortStates order.
	all := results[0].states
	for _, r := range results[1:] {
		all = append(all, r.states...)
	}
	x := make([]Bit, c.N)
	canonicalize(c, all, x)
	best := math.Inf(1)
	for _, s := range all {
		best = math.Min(best, s.e)
	}
	all = pruneStates(c, all, best, ex.Tol, maxStates, x)
	sortStates(all)
	arena := make([]Bit, len(all)*c.N)
	out := make([]Sample, len(all))
	for i, s := range all {
		xi := arena[i*c.N : (i+1)*c.N : (i+1)*c.N]
		unpackKey(s.key, xi)
		out[i] = Sample{X: xi, Energy: s.e, Occurrences: 1}
	}
	return &SampleSet{Samples: out}, nil
}

// exactState is one recorded assignment: bit i of key is x_i, and e its
// energy (table-summed until canonicalize replaces it by c.Energy).
type exactState struct {
	key uint64
	e   float64
}

type blockResult struct {
	min    float64
	states []exactState
}

// splitTable holds the per-solve tables of the split enumeration. The
// energy splits as E(x) = E_H(x_H) + E_L(x_L) + Σ_{l<k} x_l·f_l(x_H):
// the high part (offset, high linears, high–high couplers), the low
// part (low linears, low–low couplers, tabulated here once), and the
// cross fields f_l = Σ_{j≥k} W_lj·x_j the high bits induce on the low
// ones.
type splitTable struct {
	k   int       // low (tabulated) bits: variables 0..k-1
	el  []float64 // el[s]: E_L of low assignment s
	buf *table    // el's pooled storage
}

// table is the storage of one 2^k-entry table. The exact tier runs once
// per small component, so its tables are pooled rather than allocated
// per solve; every user overwrites all 2^k entries it reads.
type table [1 << exactTableBits]float64

var tablePool = sync.Pool{New: func() any { return new(table) }}

func newSplitTable(c *qubo.Compiled) *splitTable {
	k := min(c.N, exactTableBits)
	buf := tablePool.Get().(*table)
	t := &splitTable{k: k, el: buf[:1<<k], buf: buf}
	t.el[0] = 0
	// el[2^b + s] = el[s] + h_b + Σ_{j∈s} W_bj, over b's couplers to
	// lower bits (w, dense).
	var w [exactTableBits]float64
	for b := 0; b < k; b++ {
		clear(w[:])
		for q := c.RowStart[b]; q < c.RowStart[b+1]; q++ {
			if j := int(c.NeighJ[q]); j < b {
				w[j] = c.NeighW[q]
			}
		}
		lo, hi := t.el[:1<<b], t.el[1<<b:2<<b]
		for s, v := range lo {
			d := c.Linear[b]
			for r := s; r != 0; r &= r - 1 {
				d += w[bits.TrailingZeros(uint(r))]
			}
			hi[s] = v + d
		}
	}
	return t
}

// subsetSums fills dst (length 2^len(w)) with dst[s] = base + Σ_{j∈s} w[j].
func subsetSums(dst []float64, base float64, w []float64) {
	dst[0] = base
	for j, wj := range w {
		lo, hi := dst[:1<<j], dst[1<<j:2<<j]
		for s, v := range lo {
			hi[s] = v + wj
		}
	}
}

// enumerate fixes the top `split` bits to the binary expansion of block
// and walks the free high bits between them and the table in Gray-code
// order. Each high state updates the high energy and the cross fields
// with one adjacency scan of the flipped variable, builds
// lin[s] = E_H + Σ_{l∈s} f_l, and scores all 2^k low states as
// el[s] + lin[s] with no neighbour walk. A state is
// recorded only while it lies under the running cut.
func (t *splitTable) enumerate(ctx context.Context, c *qubo.Compiled, block, split int, tol float64, maxStates int) blockResult {
	k := t.k
	free := c.N - k - split
	x := make([]Bit, c.N)
	var hkey uint64
	for b := 0; b < split; b++ {
		if (block>>b)&1 != 0 {
			v := k + free + b
			x[v] = 1
			hkey |= 1 << v
		}
	}
	eh := c.Energy(x) // the low bits are 0, so this is E_H
	f := make([]float64, k)
	for l := range f {
		for q := c.RowStart[l]; q < c.RowStart[l+1]; q++ {
			if j := c.NeighJ[q]; int(j) >= k && x[j] != 0 {
				f[l] += c.NeighW[q]
			}
		}
	}
	buf := tablePool.Get().(*table)
	lin := buf[:1<<k]
	el := t.el[:len(lin)]
	res := blockResult{min: math.Inf(1)}
	thresh := math.Inf(1)
	for g := uint64(0); g < 1<<free; g++ {
		if g != 0 {
			if g&7 == 0 && ctx.Err() != nil {
				break // partial block; the caller's ctx check discards it
			}
			i := k + bits.TrailingZeros64(g) // Gray code: flip the lowest set-bit position
			sign := 1.0
			if x[i] != 0 {
				sign = -1
			}
			field := c.Linear[i]
			for q := c.RowStart[i]; q < c.RowStart[i+1]; q++ {
				if j := c.NeighJ[q]; int(j) < k {
					f[j] += sign * c.NeighW[q]
				} else if x[j] != 0 {
					field += c.NeighW[q]
				}
			}
			eh += sign * field
			x[i] ^= 1
			hkey ^= 1 << i
		}
		subsetSums(lin, eh, f)
		for s, v := range lin {
			if e := el[s] + v; e <= thresh {
				if e < res.min {
					res.min = e
					thresh = e + tol + TieTolerance(e)
				}
				res.states = append(res.states, exactState{key: hkey | uint64(s), e: e})
				// Opportunistic pruning keeps memory bounded; the final
				// merge re-filters against the global minimum.
				if len(res.states) > 4*maxStates {
					res.states = pruneStates(c, res.states, res.min, tol, 2*maxStates, x)
				}
			}
		}
	}
	res.states = pruneStates(c, res.states, res.min, tol, 2*maxStates, x)
	tablePool.Put(buf) // not deferred: a defer here slowed the scoring loop by about 20%
	return res
}

// pruneStates drops the states above min's cut and, when more than
// limit remain, keeps the limit first in sortStates order on canonical
// energies. x is the caller's assignment buffer, used as scratch and
// left unchanged.
func pruneStates(c *qubo.Compiled, states []exactState, min, tol float64, limit int, x []Bit) []exactState {
	cut := min + tol + TieTolerance(min)
	kept := states[:0]
	for _, s := range states {
		if s.e <= cut {
			kept = append(kept, s)
		}
	}
	if len(kept) > limit {
		canonicalize(c, kept, x)
		sortStates(kept)
		kept = kept[:limit]
	}
	return kept
}

// canonicalize replaces every state's energy with c.Energy of its
// assignment, so energies — and the order they set — do not depend on
// the path the enumeration took. It restores x afterwards.
func canonicalize(c *qubo.Compiled, states []exactState, x []Bit) {
	saved := packKey(x)
	for i := range states {
		unpackKey(states[i].key, x)
		states[i].e = c.Energy(x)
	}
	unpackKey(saved, x)
}

// sortStates orders states by energy, then by bit string read from x_0
// (the reversed key), the order aggregate gives every other sampler's
// set.
func sortStates(states []exactState) {
	sort.Slice(states, func(a, b int) bool {
		if states[a].e != states[b].e {
			return states[a].e < states[b].e
		}
		return bits.Reverse64(states[a].key) < bits.Reverse64(states[b].key)
	})
}

func packKey(x []Bit) uint64 {
	var key uint64
	for i, v := range x {
		key |= uint64(v&1) << i
	}
	return key
}

func unpackKey(key uint64, x []Bit) {
	for i := range x {
		x[i] = Bit(key>>i) & 1
	}
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
