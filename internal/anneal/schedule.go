package anneal

import (
	"fmt"
	"math"

	"qsmt/internal/qubo"
)

// Schedule produces the inverse-temperature (β) value for each sweep of a
// simulated-annealing run. β grows over the run: early sweeps are hot
// (β small, most uphill moves accepted) and late sweeps are cold (β large,
// the walk freezes into a minimum).
type Schedule interface {
	// Beta returns the inverse temperature for sweep i of total sweeps.
	Beta(i, total int) float64
}

// GeometricSchedule interpolates β from Min to Max geometrically, the
// default schedule of D-Wave's neal sampler.
type GeometricSchedule struct {
	Min, Max float64
}

// Beta implements Schedule.
func (g GeometricSchedule) Beta(i, total int) float64 {
	if total <= 1 {
		return g.Max
	}
	t := float64(i) / float64(total-1)
	return g.Min * math.Pow(g.Max/g.Min, t)
}

// LinearSchedule interpolates β from Min to Max linearly.
type LinearSchedule struct {
	Min, Max float64
}

// Beta implements Schedule.
func (l LinearSchedule) Beta(i, total int) float64 {
	if total <= 1 {
		return l.Max
	}
	t := float64(i) / float64(total-1)
	return l.Min + (l.Max-l.Min)*t
}

// ConstantSchedule holds β fixed; useful for testing and for the replicas
// of parallel tempering.
type ConstantSchedule struct{ Value float64 }

// Beta implements Schedule.
func (c ConstantSchedule) Beta(i, total int) float64 { return c.Value }

// DefaultSchedule derives a geometric β range from the model's coefficient
// scale, following neal's heuristic: the hottest temperature makes the
// largest single-flip energy change acceptable with probability ~1/2, and
// the coldest makes the smallest nonzero change acceptable with
// probability ~1/100.
func DefaultSchedule(c *qubo.Compiled) GeometricSchedule {
	maxDelta := 0.0
	minDelta := math.Inf(1)
	for i := 0; i < c.N; i++ {
		// Bound on |ΔE| for flipping i: |h_i| + Σ |W_ij|.
		d := math.Abs(c.Linear[i])
		for p := c.RowStart[i]; p < c.RowStart[i+1]; p++ {
			d += math.Abs(c.NeighW[p])
		}
		if d > maxDelta {
			maxDelta = d
		}
		if d > 0 && d < minDelta {
			minDelta = d
		}
		// The smallest effect can also be a single coefficient.
		if a := math.Abs(c.Linear[i]); a > 0 && a < minDelta {
			minDelta = a
		}
		for p := c.RowStart[i]; p < c.RowStart[i+1]; p++ {
			if a := math.Abs(c.NeighW[p]); a > 0 && a < minDelta {
				minDelta = a
			}
		}
	}
	if maxDelta == 0 { // flat landscape: any schedule works
		return GeometricSchedule{Min: 0.1, Max: 1}
	}
	if math.IsInf(minDelta, 1) {
		minDelta = maxDelta
	}
	return GeometricSchedule{
		Min: math.Ln2 / maxDelta,
		Max: math.Log(100) / minDelta,
	}
}

func validateSchedule(s Schedule, sweeps int) error {
	if s == nil {
		return nil // caller substitutes DefaultSchedule
	}
	if sweeps <= 0 {
		// Reject before probing: probing the last sweep below would call
		// s.Beta(-1, sweeps), and custom Schedule implementations must
		// never see a negative index.
		return fmt.Errorf("anneal: schedule validation needs a positive sweep count, got %d", sweeps)
	}
	b0, b1 := s.Beta(0, sweeps), s.Beta(sweeps-1, sweeps)
	if b0 <= 0 || b1 <= 0 || math.IsNaN(b0) || math.IsNaN(b1) {
		return fmt.Errorf("anneal: schedule produced non-positive β (%g, %g)", b0, b1)
	}
	return nil
}
