package embed

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"qsmt/internal/qubo"
)

// Embedding maps each logical variable to its chain of physical qubits.
type Embedding struct {
	// Chains[i] lists the physical qubits representing logical
	// variable i, in the order they were grown (ascending within BFS
	// layers). Every chain induces a connected subgraph of the hardware.
	Chains [][]int
}

// NumLogical returns the number of logical variables.
func (e *Embedding) NumLogical() int { return len(e.Chains) }

// NumPhysical returns the total number of physical qubits used.
func (e *Embedding) NumPhysical() int {
	total := 0
	for _, c := range e.Chains {
		total += len(c)
	}
	return total
}

// MaxChainLength returns the longest chain.
func (e *Embedding) MaxChainLength() int {
	max := 0
	for _, c := range e.Chains {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// Validate checks the embedding against a hardware graph and a logical
// interaction graph: chains must be disjoint, connected in hw, and every
// logical edge must have at least one physical coupler between its
// chains.
func (e *Embedding) Validate(logical, hw *Graph) error {
	if len(e.Chains) != logical.N() {
		return fmt.Errorf("embed: %d chains for %d logical variables", len(e.Chains), logical.N())
	}
	owner := make(map[int]int)
	for i, chain := range e.Chains {
		if len(chain) == 0 {
			return fmt.Errorf("embed: empty chain for logical %d", i)
		}
		for _, q := range chain {
			if q < 0 || q >= hw.N() {
				return fmt.Errorf("embed: chain %d uses qubit %d outside hardware", i, q)
			}
			if prev, taken := owner[q]; taken {
				return fmt.Errorf("embed: qubit %d shared by chains %d and %d", q, prev, i)
			}
			owner[q] = i
		}
		if !connectedIn(chain, hw) {
			return fmt.Errorf("embed: chain %d (%v) is not connected in hardware", i, chain)
		}
	}
	for u := 0; u < logical.N(); u++ {
		for _, v := range logical.Neighbors(u) {
			if v < u {
				continue
			}
			if !chainsCoupled(e.Chains[u], e.Chains[v], hw) {
				return fmt.Errorf("embed: logical edge {%d,%d} has no physical coupler", u, v)
			}
		}
	}
	return nil
}

func connectedIn(chain []int, hw *Graph) bool {
	if len(chain) <= 1 {
		return true
	}
	in := make(map[int]bool, len(chain))
	for _, q := range chain {
		in[q] = true
	}
	seen := map[int]bool{chain[0]: true}
	queue := []int{chain[0]}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, nb := range hw.Neighbors(q) {
			if in[nb] && !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == len(chain)
}

func chainsCoupled(a, b []int, hw *Graph) bool {
	for _, u := range a {
		for _, v := range b {
			if hw.HasEdge(u, v) {
				return true
			}
		}
	}
	return false
}

// InteractionGraph extracts the logical coupling graph of a compiled
// QUBO: one vertex per variable, one edge per nonzero coupler.
func InteractionGraph(c *qubo.Compiled) *Graph {
	g := NewGraph(c.N)
	for i := 0; i < c.N; i++ {
		for p := c.RowStart[i]; p < c.RowStart[i+1]; p++ {
			if j := int(c.NeighJ[p]); j > i {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// ErrNoEmbedding reports that the greedy embedder could not place the
// logical graph on the hardware within its retry budget.
var ErrNoEmbedding = errors.New("embed: no embedding found")

// Embedder finds minor embeddings with a randomized greedy chain-growth
// heuristic (in the spirit of minorminer): logical variables are placed
// in descending-degree order; each new variable claims the free physical
// qubit (plus a connecting tree of free qubits, grown by BFS) closest to
// the chains of its already-placed neighbors.
type Embedder struct {
	Seed    int64 // base RNG seed; default 1
	Retries int   // restarts with different orders; default 16
}

// Find embeds the logical graph into hw. An error wraps ErrNoEmbedding
// when all retries fail.
func (em *Embedder) Find(logical, hw *Graph) (*Embedding, error) {
	if logical.N() == 0 {
		return &Embedding{}, nil
	}
	if logical.N() > hw.N() {
		return nil, fmt.Errorf("%w: %d logical variables exceed %d physical qubits",
			ErrNoEmbedding, logical.N(), hw.N())
	}
	seed := em.Seed
	if seed == 0 {
		seed = 1
	}
	retries := em.Retries
	if retries <= 0 {
		retries = 16
	}
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		rng := rand.New(rand.NewSource(seed + int64(attempt)))
		e, err := greedyEmbed(logical, hw, rng)
		if err == nil {
			return e, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %v", ErrNoEmbedding, lastErr)
}

// greedyEmbed is one randomized placement attempt.
func greedyEmbed(logical, hw *Graph, rng *rand.Rand) (*Embedding, error) {
	order := placementOrder(logical, rng)
	used := make([]bool, hw.N())
	chains := make([][]int, logical.N())

	for _, v := range order {
		// Collect the target chains of already-placed neighbors.
		var targets [][]int
		for _, nb := range logical.Neighbors(v) {
			if chains[nb] != nil {
				targets = append(targets, chains[nb])
			}
		}
		chain, err := growChain(hw, used, targets, rng)
		if err != nil {
			return nil, fmt.Errorf("placing logical %d: %w", v, err)
		}
		for _, q := range chain {
			used[q] = true
		}
		chains[v] = chain
	}
	e := &Embedding{Chains: chains}
	if err := e.Validate(logical, hw); err != nil {
		return nil, err
	}
	return e, nil
}

// placementOrder sorts variables by descending degree with random tie
// breaking, so dense hubs claim central hardware early.
func placementOrder(logical *Graph, rng *rand.Rand) []int {
	order := rng.Perm(logical.N())
	sort.SliceStable(order, func(a, b int) bool {
		return logical.Degree(order[a]) > logical.Degree(order[b])
	})
	return order
}

// growChain finds a connected set of free qubits that touches every
// target chain: a multi-source BFS from all targets over free qubits;
// the first free qubit reached from every target becomes the chain root,
// and the BFS trees supply the connecting paths.
func growChain(hw *Graph, used []bool, targets [][]int, rng *rand.Rand) ([]int, error) {
	if len(targets) == 0 {
		// Isolated (so far) variable: any free qubit, randomly chosen
		// among those with the most free neighbors to keep room.
		best := -1
		bestScore := -1
		for _, q := range rng.Perm(hw.N()) {
			if used[q] {
				continue
			}
			score := 0
			for _, nb := range hw.Neighbors(q) {
				if !used[nb] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = q, score
			}
		}
		if best < 0 {
			return nil, errors.New("no free qubits")
		}
		return []int{best}, nil
	}

	// BFS from each target over free qubits, recording distance and
	// parent per source.
	type bfsResult struct {
		dist   []int
		parent []int
	}
	bfsFrom := func(seeds []int, inChain map[int]bool) bfsResult {
		dist := make([]int, hw.N())
		parent := make([]int, hw.N())
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		var queue []int
		for _, q := range seeds {
			for _, nb := range hw.Neighbors(q) {
				if !used[nb] && !inChain[nb] && dist[nb] < 0 {
					dist[nb] = 0
					queue = append(queue, nb)
				}
			}
		}
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			for _, nb := range hw.Neighbors(q) {
				if !used[nb] && !inChain[nb] && dist[nb] < 0 {
					dist[nb] = dist[q] + 1
					parent[nb] = q
					queue = append(queue, nb)
				}
			}
		}
		return bfsResult{dist: dist, parent: parent}
	}
	results := make([]bfsResult, len(targets))
	for ti, target := range targets {
		results[ti] = bfsFrom(target, nil)
	}

	// Phase 1: pick the root reaching the most targets (ties: least
	// total distance, then random).
	root, bestReached, bestTotal := -1, -1, -1
	for _, q := range rng.Perm(hw.N()) {
		if used[q] {
			continue
		}
		reached, total := 0, 0
		for _, r := range results {
			if r.dist[q] >= 0 {
				reached++
				total += r.dist[q]
			}
		}
		if reached > bestReached || (reached == bestReached && total < bestTotal) {
			root, bestReached, bestTotal = q, reached, total
		}
	}
	if root < 0 || bestReached == 0 {
		return nil, errors.New("no free qubit reaches any neighbor chain")
	}

	inChain := map[int]bool{root: true}
	chain := []int{root}
	addPath := func(r bfsResult, from int) {
		q := from
		for r.parent[q] >= 0 {
			q = r.parent[q]
			if !inChain[q] {
				inChain[q] = true
				chain = append(chain, q)
			}
		}
	}
	var unreached []int
	for ti, r := range results {
		if r.dist[root] >= 0 {
			addPath(r, root)
		} else {
			unreached = append(unreached, ti)
		}
	}

	// Phase 2: connect each remaining target by growing the current
	// chain toward it — BFS from the chain over free qubits until a
	// qubit adjacent to the target's chain is found.
	for _, ti := range unreached {
		target := targets[ti]
		if chainsCoupled(chain, target, hw) {
			continue // a phase-1 path already touches it
		}
		r := bfsFrom(chain, inChain)
		bridge := -1
		bestD := -1
		for _, q := range rng.Perm(hw.N()) {
			if used[q] || inChain[q] || r.dist[q] < 0 {
				continue
			}
			adjacent := false
			for _, tq := range target {
				if hw.HasEdge(q, tq) {
					adjacent = true
					break
				}
			}
			if !adjacent {
				continue
			}
			if bestD < 0 || r.dist[q] < bestD {
				bridge, bestD = q, r.dist[q]
			}
		}
		if bridge < 0 {
			return nil, errors.New("chain cannot grow to reach a neighbor chain")
		}
		if !inChain[bridge] {
			inChain[bridge] = true
			chain = append(chain, bridge)
		}
		addPath(r, bridge)
	}
	return chain, nil
}
