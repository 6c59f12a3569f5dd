package qubo

import (
	"fmt"
	"sort"
)

// Shard is one connected component of a model's variable-interaction
// graph, extracted as an independent sub-model. Two variables are
// connected when a nonzero coupler joins them; variables with no
// couplers form singleton shards. Because no coupler crosses a shard
// boundary, the full model's energy separates exactly:
//
//	E(x) = offset + Σ_shards E_shard(x restricted to the shard)
//
// where each Shard.Model carries a zero offset (the parent's offset is
// counted once by the caller). Minimizing every shard independently
// therefore minimizes the whole model — the decomposition behind the
// solver's sharded solving path.
type Shard struct {
	// Vars holds the global variable indices of the component in
	// ascending order; local variable k of Model corresponds to Vars[k].
	Vars []int
	// Model is the induced sub-model over len(Vars) local variables,
	// with a zero offset.
	Model *Model
}

// Components decomposes a model into the connected components of its
// variable-interaction graph, one Shard per component, ordered by each
// component's smallest global variable index. A model with no variables
// yields no shards. The input model is not modified; shard models share
// no storage with it.
func Components(m *Model) []Shard {
	if m.n == 0 {
		return nil
	}
	// Union-find over variables, unions driven by the couplers.
	parent := make([]int, m.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]] // path halving
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // root at the smaller index
		}
	}
	for k := range m.quad {
		union(k.I, k.J)
	}

	// Group variables by root, ascending within each component because i
	// ascends.
	members := make(map[int][]int)
	roots := make([]int, 0)
	for i := 0; i < m.n; i++ {
		r := find(i)
		if _, ok := members[r]; !ok {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	sort.Ints(roots)

	// Build shard models in one pass: local index tables first, then a
	// single sweep over the diagonal and coupler storage.
	local := make([]int, m.n) // global -> local index
	which := make([]int, m.n) // global -> shard ordinal
	for s, r := range roots {
		for k, g := range members[r] {
			local[g] = k
			which[g] = s
		}
	}
	// Size each shard's coupler map up front. The union-find is done
	// with parent, so it holds the per-shard counts.
	couplers := parent[:len(roots)]
	clear(couplers)
	for k := range m.quad {
		couplers[which[k.I]]++
	}
	shards := make([]Shard, len(roots))
	for s, r := range roots {
		vars := members[r]
		shards[s] = Shard{Vars: vars, Model: newModel(len(vars), couplers[s])}
	}
	for g, v := range m.diag {
		if v != 0 {
			shards[which[g]].Model.AddLinear(local[g], v)
		}
	}
	for k, v := range m.quad {
		s := which[k.I] // k.J is in the same component by construction
		shards[s].Model.AddQuadratic(local[k.I], local[k.J], v)
	}
	return shards
}

// Scatter copies a shard-local assignment back into the full assignment
// dst at the shard's global positions: dst[Vars[k]] = src[k].
func (s *Shard) Scatter(dst, src []Bit) {
	if len(src) != len(s.Vars) {
		panic(fmt.Sprintf("qubo: shard assignment length %d != %d variables", len(src), len(s.Vars)))
	}
	for k, g := range s.Vars {
		dst[g] = src[k]
	}
}
