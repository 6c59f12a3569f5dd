package anneal

// Regression tests for the observability PR's edge-case bugfix sweep,
// plus the Collector integration coverage for the substrate metrics.

import (
	"context"
	"math"
	"testing"

	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

// TestGroundFractionZeroTotalOccurrences: a set whose samples carry zero
// occurrences (hand-built, or filtered upstream) must report fraction 0,
// not 0/0 = NaN. Fails on the pre-fix code with NaN.
func TestGroundFractionZeroTotalOccurrences(t *testing.T) {
	ss := &SampleSet{Samples: []Sample{
		{X: []Bit{0, 1}, Energy: -1, Occurrences: 0},
		{X: []Bit{1, 1}, Energy: 2, Occurrences: 0},
	}}
	got := ss.GroundFraction(0)
	if math.IsNaN(got) {
		t.Fatal("GroundFraction returned NaN for zero total occurrences")
	}
	if got != 0 {
		t.Fatalf("GroundFraction = %g, want 0", got)
	}
}

// indexRecordingSchedule records every sweep index it is probed with.
type indexRecordingSchedule struct{ indices []int }

func (s *indexRecordingSchedule) Beta(i, total int) float64 {
	s.indices = append(s.indices, i)
	return 1
}

// TestValidateScheduleRejectsNonPositiveSweeps: sweeps ≤ 0 must be
// rejected with an error *before* the schedule is probed — the pre-fix
// code called s.Beta(-1, 0), handing custom Schedule implementations a
// negative index they never contracted for.
func TestValidateScheduleRejectsNonPositiveSweeps(t *testing.T) {
	for _, sweeps := range []int{0, -1, -100} {
		rec := &indexRecordingSchedule{}
		err := validateSchedule(rec, sweeps)
		if err == nil {
			t.Errorf("sweeps=%d accepted", sweeps)
		}
		for _, i := range rec.indices {
			if i < 0 {
				t.Fatalf("sweeps=%d: schedule probed with negative index %d", sweeps, i)
			}
		}
	}
	// The positive path still validates by probing both ends.
	if err := validateSchedule(ConstantSchedule{Value: 1}, 1); err != nil {
		t.Errorf("sweeps=1 rejected: %v", err)
	}
}

// groupedSampler returns a fixed, pre-grouped sample set — a stand-in
// for a base sampler whose aggregation grouped equal reads differently.
type groupedSampler struct{ samples []Sample }

func (g *groupedSampler) Sample(c *qubo.Compiled) (*SampleSet, error) {
	return &SampleSet{Samples: g.samples}, nil
}

// TestNoisySamplerNoiseIndependentOfAggregationOrder: the same multiset
// of reads, grouped differently by the base sampler, must receive the
// same noise. The pre-fix code seeded a stream per *deduplicated sample
// index*, so regrouping (occ=2 vs occ=1+1) silently changed the noise.
func TestNoisySamplerNoiseIndependentOfAggregationOrder(t *testing.T) {
	m := qubo.New(8)
	for i := 0; i < 8; i++ {
		m.AddLinear(i, -1)
	}
	c := m.Compile()
	a := []Bit{1, 1, 1, 1, 0, 0, 0, 0}
	b := []Bit{0, 0, 0, 0, 1, 1, 1, 1}

	grouped := &groupedSampler{samples: []Sample{
		{X: a, Energy: -4, Occurrences: 2},
		{X: b, Energy: -4, Occurrences: 1},
	}}
	split := &groupedSampler{samples: []Sample{
		{X: a, Energy: -4, Occurrences: 1},
		{X: a, Energy: -4, Occurrences: 1},
		{X: b, Energy: -4, Occurrences: 1},
	}}

	run := func(base *groupedSampler) *SampleSet {
		ss, err := (&NoisySampler{Base: base, FlipProb: 0.4, Seed: 11}).Sample(c)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	sa, sb := run(grouped), run(split)
	if sa.Len() != sb.Len() {
		t.Fatalf("noise depends on aggregation grouping: %d vs %d distinct samples", sa.Len(), sb.Len())
	}
	for i := range sa.Samples {
		if bitKey(sa.Samples[i].X) != bitKey(sb.Samples[i].X) ||
			sa.Samples[i].Occurrences != sb.Samples[i].Occurrences {
			t.Fatalf("noise depends on aggregation grouping at sample %d:\n%v\nvs\n%v",
				i, sa.Samples[i], sb.Samples[i])
		}
	}
}

// TestKernelLifetimeStats: the kernel's flip counter tracks every
// accepted flip and the resync counter fires once the drift bound is
// crossed.
func TestKernelLifetimeStats(t *testing.T) {
	m := qubo.New(2)
	m.AddLinear(0, 1)
	m.AddQuadratic(0, 1, -2)
	c := m.Compile()
	k := NewKernel(c)
	const flips = defaultResyncEvery + 10
	for i := 0; i < flips; i++ {
		k.Flip(i % 2)
	}
	if got := k.Flips(); got != int64(flips) {
		t.Errorf("Flips = %d, want %d", got, flips)
	}
	if got := k.Resyncs(); got != 1 {
		t.Errorf("Resyncs = %d, want 1", got)
	}
	// Reset rebuilds state but must not count as a drift resync or erase
	// lifetime work.
	k.Reset([]Bit{0, 0})
	if k.Flips() != int64(flips) || k.Resyncs() != 1 {
		t.Errorf("Reset disturbed lifetime stats: flips=%d resyncs=%d", k.Flips(), k.Resyncs())
	}
}

// TestCollectorWiredThroughSamplers: every local-search sampler reports
// reads, sweeps, and flips through its Collector, and the counts square
// with the configuration.
func TestCollectorWiredThroughSamplers(t *testing.T) {
	target := []Bit{1, 0, 1, 1, 0, 1}
	c := diagModel(target).Compile()

	t.Run("simulated-annealing", func(t *testing.T) {
		reg := obs.NewRegistry()
		col := obs.NewCollector(reg)
		sa := &SimulatedAnnealer{Reads: 8, Sweeps: 50, Seed: 1, Collector: col}
		if _, err := sa.Sample(c); err != nil {
			t.Fatal(err)
		}
		if got := col.Reads.Value(); got != 8 {
			t.Errorf("reads = %g, want 8", got)
		}
		if got := col.Sweeps.Value(); got != 8*50 {
			t.Errorf("sweeps = %g, want %d", got, 8*50)
		}
		if col.Flips.Value() == 0 {
			t.Error("no flips recorded")
		}
		if col.ReadsCancelled.Value() != 0 || col.ReadsSkipped.Value() != 0 {
			t.Error("uncancelled run recorded cancellations")
		}
	})

	t.Run("tempering", func(t *testing.T) {
		reg := obs.NewRegistry()
		col := obs.NewCollector(reg)
		pt := &ParallelTempering{Reads: 2, Replicas: 3, Sweeps: 20, Seed: 1, Collector: col}
		if _, err := pt.Sample(c); err != nil {
			t.Fatal(err)
		}
		if got := col.Reads.Value(); got != 2 {
			t.Errorf("reads = %g, want 2", got)
		}
		if got := col.Sweeps.Value(); got != 2*3*20 {
			t.Errorf("sweeps = %g, want %d", got, 2*3*20)
		}
	})

	t.Run("tabu", func(t *testing.T) {
		reg := obs.NewRegistry()
		col := obs.NewCollector(reg)
		ts := &TabuSampler{Reads: 4, Steps: 30, Seed: 1, Collector: col}
		if _, err := ts.Sample(c); err != nil {
			t.Fatal(err)
		}
		if got := col.Reads.Value(); got != 4 {
			t.Errorf("reads = %g, want 4", got)
		}
		if col.Sweeps.Value() == 0 {
			t.Error("no steps recorded as sweeps")
		}
	})

	t.Run("greedy", func(t *testing.T) {
		reg := obs.NewRegistry()
		col := obs.NewCollector(reg)
		g := &GreedySampler{Reads: 5, Seed: 1, Collector: col}
		if _, err := g.Sample(c); err != nil {
			t.Fatal(err)
		}
		if got := col.Reads.Value(); got != 5 {
			t.Errorf("reads = %g, want 5", got)
		}
		if col.Flips.Value() == 0 {
			t.Error("greedy descent recorded no flips")
		}
	})
}

// countdownCtx reports Canceled after a fixed number of Err() probes —
// a deterministic stand-in for a deadline landing mid-run.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestCollectorRecordsCancellation: a run cut off by its context reports
// cancelled and skipped reads, so restart utilisation is observable.
func TestCollectorRecordsCancellation(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		target := []Bit{1, 0, 1, 1}
		c := diagModel(target).Compile()
		reg := obs.NewRegistry()
		col := obs.NewCollector(reg)
		// Single worker, 4 reads of 5 sweeps: the Err budget runs out inside
		// the second read, so at least one read is cancelled mid-run and at
		// least one is never dispatched.
		ctx := &countdownCtx{Context: context.Background(), remaining: 9}
		sa := &SimulatedAnnealer{Reads: 4, Sweeps: 5, Workers: 1, Seed: 1, Scalar: true, Collector: col}
		if _, err := sa.SampleContext(ctx, c); err == nil {
			t.Fatal("cancelled run succeeded")
		}
		started := col.Reads.Value()
		skipped := col.ReadsSkipped.Value()
		if started+skipped != 4 {
			t.Errorf("started (%g) + skipped (%g) != 4 requested reads", started, skipped)
		}
		if skipped == 0 {
			t.Error("no skipped reads recorded")
		}
		if col.ReadsCancelled.Value() == 0 {
			t.Error("no mid-run cancellation recorded")
		}
	})

	t.Run("packed", func(t *testing.T) {
		target := []Bit{1, 0, 1, 1}
		c := diagModel(target).Compile()
		reg := obs.NewRegistry()
		col := obs.NewCollector(reg)
		// 130 reads = three 64-lane groups (64+64+2). The Err budget runs
		// out inside the second group's sweeps, so its 64 lanes are
		// cancelled mid-run and the third group's 2 reads are skipped.
		ctx := &countdownCtx{Context: context.Background(), remaining: 9}
		sa := &SimulatedAnnealer{Reads: 130, Sweeps: 5, Workers: 1, Seed: 1, Collector: col}
		if _, err := sa.SampleContext(ctx, c); err == nil {
			t.Fatal("cancelled run succeeded")
		}
		started := col.Reads.Value()
		skipped := col.ReadsSkipped.Value()
		if started+skipped != 130 {
			t.Errorf("started (%g) + skipped (%g) != 130 requested reads", started, skipped)
		}
		if skipped == 0 {
			t.Error("no skipped reads recorded")
		}
		if col.ReadsCancelled.Value() == 0 {
			t.Error("no mid-run cancellation recorded")
		}
	})
}
