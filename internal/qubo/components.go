package qubo

import (
	"fmt"
	"slices"
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
	// with a zero offset. Partition leaves it nil until Induce builds it.
	Model *Model
}

// groups partitions m's variables into the connected components of its
// variable-interaction graph: one Shard per component, ordered by its
// smallest variable, with its Vars in ascending order and no Model.
// which[g] is variable g's component ordinal and local[g] its index in
// that component. Because each component's variables ascend, local is
// monotone within a component: the parent's row-major coupler order
// restricted to one component is that component's local row-major
// order.
func groups(m *Model) (shards []Shard, which, local []int) {
	n := m.n
	scratch := make([]int, 3*n)
	parent, which, local := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]] // path halving
			i = parent[i]
		}
		return i
	}
	for k := range m.quad {
		ra, rb := find(k.I), find(k.J)
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra // root at the smaller index
	}
	// A root is its component's smallest variable, so scanning upwards
	// meets every root before the rest of its component and numbers the
	// components in the order Components promises.
	count := 0
	for i := range which {
		if r := find(i); r == i {
			which[i] = count
			count++
		} else {
			which[i] = which[r]
		}
	}
	// The union-find is done; parent holds the component sizes.
	sizes := parent[:count]
	clear(sizes)
	for i, c := range which {
		local[i] = sizes[c]
		sizes[c]++
	}
	backing := make([]int, n)
	shards = make([]Shard, count)
	for c, size := range sizes {
		shards[c].Vars, backing = backing[:size:size], backing[size:]
	}
	for i, c := range which {
		shards[c].Vars[local[i]] = i
	}
	return shards, which, local
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
	shards, which, local := groups(m)
	// Size each shard's coupler map up front, then build every shard
	// model in a single sweep over the diagonal and coupler storage.
	couplers := make([]int, len(shards))
	for k := range m.quad {
		couplers[which[k.I]]++
	}
	for s := range shards {
		shards[s].Model = NewSized(len(shards[s].Vars), couplers[s])
	}
	for g, v := range m.diag {
		if v != 0 {
			shards[which[g]].Model.diag[local[g]] = v
		}
	}
	for k, v := range m.quad {
		s := which[k.I] // k.J is in the same component by construction
		shards[s].Model.quad[key{local[k.I], local[k.J]}] = v
	}
	return shards
}

// Partition decomposes m exactly as Components does, but builds no
// shard models: every returned Shard has its Vars and a nil Model, and
// fps[s] is the fingerprint of shard s's model, equal bit for bit to
// FingerprintOf(Components(m)[s].Model). The fingerprints come from one
// pass over m's diagonal and one over its sorted couplers, each
// coefficient fed into its component's hash stream under its local
// index. Callers that key a memo by component build a shard's model
// (Induce) only when the memo misses.
func Partition(m *Model) (shards []Shard, fps []Fingerprint) {
	if m.n == 0 {
		return nil, nil
	}
	shards, which, local := groups(m)
	fps = make([]Fingerprint, len(shards))
	for s := range shards {
		fps[s] = newFingerprint(len(shards[s].Vars), 0) // shard models carry a zero offset
	}
	for g, v := range m.diag {
		if v != 0 {
			fps[which[g]].linear(local[g], v)
		}
	}
	for _, t := range m.Terms() {
		fps[which[t.I]].coupler(local[t.I], local[t.J], t.W)
	}
	return shards, fps
}

// Induce builds the shard's model from m, the model the shard was
// partitioned from, stores it in Model and returns it; a shard that
// already has a model returns it as is. The result equals the shard
// model Components builds. A singleton shard reads one diagonal entry;
// a larger one scans m's couplers once.
func (s *Shard) Induce(m *Model) *Model {
	if s.Model != nil {
		return s.Model
	}
	sub := New(len(s.Vars))
	for k, g := range s.Vars {
		if v := m.diag[g]; v != 0 {
			sub.diag[k] = v
		}
	}
	if len(s.Vars) > 1 {
		for k, v := range m.quad {
			if i, ok := slices.BinarySearch(s.Vars, k.I); ok {
				j, _ := slices.BinarySearch(s.Vars, k.J)
				sub.quad[key{i, j}] = v
			}
		}
	}
	s.Model = sub
	return sub
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
