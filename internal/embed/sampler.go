package embed

import (
	"errors"
	"fmt"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// Sampler matches the solver-facing sampler contract (anneal samplers
// and this package's EmbeddedSampler both satisfy it).
type Sampler interface {
	Sample(*qubo.Compiled) (*anneal.SampleSet, error)
}

// EmbeddedSampler runs any base sampler behind a full hardware-topology
// round trip: minor-embed the logical QUBO onto Hardware, sample the
// physical model, unembed each read by majority vote, and re-evaluate
// energies on the logical model. It reproduces the software path a real
// quantum annealer submission takes (D-Wave's EmbeddingComposite), so
// the string encoders can be validated against topology constraints
// before any hardware exists.
type EmbeddedSampler struct {
	Hardware *Graph  // physical topology; required
	Base     Sampler // sampler for the embedded model; default SimulatedAnnealer
	// ChainStrength for the intra-chain agreement penalty; ≤0 selects
	// DefaultChainStrengthFactor × max|coefficient|.
	ChainStrength float64
	// Embedder locates the minor embedding; zero value is usable.
	Embedder Embedder
	// Embedding, when non-nil, is used directly instead of searching —
	// e.g. a CliqueOnChimera construction for dense interaction graphs.
	// It must be valid for the hardware and cover the model's variables.
	Embedding *Embedding

	// Stats from the most recent Sample call.
	LastEmbedding   *Embedding
	LastBrokenReads int // reads that contained at least one broken chain
}

// Sample implements the sampler contract over the logical model.
func (es *EmbeddedSampler) Sample(c *qubo.Compiled) (*anneal.SampleSet, error) {
	if es.Hardware == nil {
		return nil, errors.New("embed: EmbeddedSampler requires a hardware graph")
	}
	if c == nil {
		return nil, errors.New("embed: nil model")
	}
	// Rebuild the logical Model from the compiled view (samplers receive
	// compiled models; embedding needs coefficient access).
	logical := qubo.New(c.N)
	logical.AddOffset(c.Offset)
	for i, h := range c.Linear {
		if h != 0 {
			logical.SetLinear(i, h)
		}
	}
	for i := 0; i < c.N; i++ {
		for p := c.RowStart[i]; p < c.RowStart[i+1]; p++ {
			if j := int(c.NeighJ[p]); j > i {
				logical.SetQuadratic(i, j, c.NeighW[p])
			}
		}
	}

	e := es.Embedding
	if e == nil {
		var err error
		e, err = es.Embedder.Find(InteractionGraph(c), es.Hardware)
		if err != nil {
			return nil, err
		}
	} else if err := e.Validate(InteractionGraph(c), es.Hardware); err != nil {
		return nil, fmt.Errorf("embed: supplied embedding invalid: %w", err)
	}
	es.LastEmbedding = e

	phys, err := EmbedQUBO(logical, e, es.Hardware, es.ChainStrength)
	if err != nil {
		return nil, err
	}
	base := es.Base
	if base == nil {
		base = &anneal.SimulatedAnnealer{}
	}
	physSamples, err := base.Sample(phys.Compile())
	if err != nil {
		return nil, fmt.Errorf("embed: sampling physical model: %w", err)
	}

	es.LastBrokenReads = 0
	raw := make([]anneal.Sample, 0, len(physSamples.Samples))
	for _, ps := range physSamples.Samples {
		if BrokenChains(ps.X, e) > 0 {
			es.LastBrokenReads += ps.Occurrences
		}
		logicalX := Unembed(ps.X, e)
		raw = append(raw, anneal.Sample{
			X:           logicalX,
			Energy:      c.Energy(logicalX), // re-evaluated on the logical model
			Occurrences: ps.Occurrences,
		})
	}
	return anneal.Aggregate(raw), nil
}
