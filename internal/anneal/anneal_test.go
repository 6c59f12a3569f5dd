package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qsmt/internal/qubo"
)

// diagModel builds a diagonal QUBO whose unique ground state is target.
func diagModel(target []Bit) *qubo.Model {
	m := qubo.New(len(target))
	for i, b := range target {
		if b == 1 {
			m.AddLinear(i, -1)
		} else {
			m.AddLinear(i, 1)
		}
	}
	return m
}

// frustratedModel builds a small model with couplers and a known ground
// state found by brute force in the test itself.
func frustratedModel(rng *rand.Rand, n int) *qubo.Model {
	m := qubo.New(n)
	for i := 0; i < n; i++ {
		m.AddLinear(i, rng.NormFloat64())
		for j := i + 1; j < n; j++ {
			if rng.Intn(2) == 0 {
				m.AddQuadratic(i, j, rng.NormFloat64())
			}
		}
	}
	return m
}

func bruteForceMin(c *qubo.Compiled) float64 {
	best := math.Inf(1)
	x := make([]Bit, c.N)
	var rec func(i int)
	rec = func(i int) {
		if i == c.N {
			if e := c.Energy(x); e < best {
				best = e
			}
			return
		}
		x[i] = 0
		rec(i + 1)
		x[i] = 1
		rec(i + 1)
	}
	rec(0)
	return best
}

func TestSAFindsDiagonalGroundState(t *testing.T) {
	target := []Bit{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1}
	c := diagModel(target).Compile()
	sa := &SimulatedAnnealer{Reads: 8, Sweeps: 200, Seed: 42}
	ss, err := sa.Sample(c)
	if err != nil {
		t.Fatal(err)
	}
	best := ss.Best()
	for i := range target {
		if best.X[i] != target[i] {
			t.Fatalf("best = %v, want %v (E=%g)", best.X, target, best.Energy)
		}
	}
	ones := 0
	for _, b := range target {
		if b == 1 {
			ones++
		}
	}
	if best.Energy != -float64(ones) {
		t.Errorf("ground energy = %g, want %g", best.Energy, -float64(ones))
	}
}

func TestSAMatchesExactOnFrustratedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(6)
		c := frustratedModel(rng, n).Compile()
		want := bruteForceMin(c)
		sa := &SimulatedAnnealer{Reads: 32, Sweeps: 500, Seed: int64(trial + 1)}
		ss, err := sa.Sample(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := ss.Best().Energy; math.Abs(got-want) > 1e-9 {
			t.Errorf("trial %d: SA best %g, exact %g", trial, got, want)
		}
	}
}

func TestSADeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := frustratedModel(rng, 12).Compile()
	sa1 := &SimulatedAnnealer{Reads: 16, Sweeps: 100, Seed: 5, Workers: 4}
	sa2 := &SimulatedAnnealer{Reads: 16, Sweeps: 100, Seed: 5, Workers: 2}
	ss1, err := sa1.Sample(c)
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := sa2.Sample(c)
	if err != nil {
		t.Fatal(err)
	}
	if ss1.Len() != ss2.Len() {
		t.Fatalf("different sample counts: %d vs %d", ss1.Len(), ss2.Len())
	}
	for i := range ss1.Samples {
		a, b := ss1.Samples[i], ss2.Samples[i]
		if a.Energy != b.Energy || a.Occurrences != b.Occurrences || bitKey(a.X) != bitKey(b.X) {
			t.Fatalf("sample %d differs across worker counts", i)
		}
	}
}

func TestSADifferentSeedsDiffer(t *testing.T) {
	// On a flat-ish random landscape, different seeds should visit
	// different states (not a strict guarantee, but overwhelmingly likely
	// at 40 variables with 1 sweep).
	m := qubo.New(40)
	c := m.Compile()
	get := func(seed int64) string {
		sa := &SimulatedAnnealer{Reads: 1, Sweeps: 1, Seed: seed}
		ss, err := sa.Sample(c)
		if err != nil {
			t.Fatal(err)
		}
		return bitKey(ss.Best().X)
	}
	if get(1) == get(2) {
		t.Error("seeds 1 and 2 produced identical states on a flat 40-var landscape")
	}
}

func TestSAZeroVariableModel(t *testing.T) {
	m := qubo.New(0)
	m.AddOffset(3)
	ss, err := (&SimulatedAnnealer{}).Sample(m.Compile())
	if err != nil {
		t.Fatal(err)
	}
	if ss.Best().Energy != 3 {
		t.Errorf("energy = %g, want 3", ss.Best().Energy)
	}
}

func TestSANilModel(t *testing.T) {
	if _, err := (&SimulatedAnnealer{}).Sample(nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestSAPostDescentNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		c := frustratedModel(rng, 14).Compile()
		plain := &SimulatedAnnealer{Reads: 8, Sweeps: 30, Seed: 3}
		post := &SimulatedAnnealer{Reads: 8, Sweeps: 30, Seed: 3, PostDescent: true}
		p1, err := plain.Sample(c)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := post.Sample(c)
		if err != nil {
			t.Fatal(err)
		}
		if p2.Best().Energy > p1.Best().Energy+1e-12 {
			t.Errorf("trial %d: post-descent best %g worse than plain %g",
				trial, p2.Best().Energy, p1.Best().Energy)
		}
	}
}

func TestExactSolverGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(10)
		c := frustratedModel(rng, n).Compile()
		want := bruteForceMin(c)
		ss, err := (&ExactSolver{}).Sample(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := ss.Best().Energy; math.Abs(got-want) > 1e-9 {
			t.Errorf("trial %d: exact %g, brute %g", trial, got, want)
		}
		// The returned assignment's energy must match its label.
		if e := c.Energy(ss.Best().X); math.Abs(e-ss.Best().Energy) > 1e-9 {
			t.Errorf("trial %d: labeled %g, recomputed %g", trial, ss.Best().Energy, e)
		}
	}
}

func TestExactSolverTolReturnsDegenerateStates(t *testing.T) {
	// Flat model: all 2^4 states are ground states.
	c := qubo.New(4).Compile()
	ss, err := (&ExactSolver{MaxStates: 100}).Sample(c)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != 16 {
		t.Errorf("distinct ground states = %d, want 16", ss.Len())
	}
}

// TestExactSolverExactTieTolerance pins near-equal energies as ties: the
// states {x0,x1} and {x2} both have energy −0.3, but 0.1+0.2 rounds to
// 0.30000000000000004, so an exact comparison keeps only one of them.
func TestExactSolverExactTieTolerance(t *testing.T) {
	m := qubo.New(3)
	m.AddLinear(0, -0.1)
	m.AddLinear(1, -0.2)
	m.AddLinear(2, -0.3)
	m.AddQuadratic(0, 2, 10)
	m.AddQuadratic(1, 2, 10)
	ss, err := (&ExactSolver{MaxStates: 8}).Sample(m.Compile())
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != 2 {
		t.Fatalf("ground states = %d (%v), want the two tied states", ss.Len(), ss.Samples)
	}
	for _, s := range ss.Samples {
		if math.Abs(s.Energy+0.3) > 1e-12 {
			t.Errorf("state %v energy %.17g, want -0.3", s.X, s.Energy)
		}
	}
}

func TestExactSolverRespectsMaxStates(t *testing.T) {
	c := qubo.New(6).Compile() // 64 degenerate states
	ss, err := (&ExactSolver{MaxStates: 5}).Sample(c)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() > 5 {
		t.Errorf("returned %d states, cap 5", ss.Len())
	}
}

func TestExactSolverTooLarge(t *testing.T) {
	c := qubo.New(MaxExactVars + 1).Compile()
	if _, err := (&ExactSolver{}).Sample(c); err == nil {
		t.Fatal("oversized exact solve accepted")
	}
}

func TestGreedySamplerDescendsToLocalMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := frustratedModel(rng, 12).Compile()
	ss, err := (&GreedySampler{Reads: 16, Seed: 2}).Sample(c)
	if err != nil {
		t.Fatal(err)
	}
	// Every returned state must be a local minimum: no single flip improves.
	for _, s := range ss.Samples {
		for i := 0; i < c.N; i++ {
			if c.FlipDelta(s.X, i) < -1e-12 {
				t.Fatalf("state %v is not a local minimum (flip %d improves)", s.X, i)
			}
		}
	}
}

func TestRandomSamplerEnergiesAreLabeledCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := frustratedModel(rng, 10).Compile()
	ss, err := (&RandomSampler{Reads: 32, Seed: 4}).Sample(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ss.Samples {
		if math.Abs(c.Energy(s.X)-s.Energy) > 1e-9 {
			t.Fatalf("mislabeled energy: %g vs %g", s.Energy, c.Energy(s.X))
		}
	}
	if ss.TotalReads() != 32 {
		t.Errorf("TotalReads = %d, want 32", ss.TotalReads())
	}
}

func TestGreedyBeatsRandomOnStructuredModel(t *testing.T) {
	target := make([]Bit, 30)
	for i := range target {
		target[i] = Bit(i % 2)
	}
	c := diagModel(target).Compile()
	g, err := (&GreedySampler{Reads: 4, Seed: 1}).Sample(c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := (&RandomSampler{Reads: 4, Seed: 1}).Sample(c)
	if err != nil {
		t.Fatal(err)
	}
	if g.Best().Energy >= r.Best().Energy {
		t.Errorf("greedy %g should beat random %g", g.Best().Energy, r.Best().Energy)
	}
}

func TestParallelTemperingFindsGroundState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		n := 8 + rng.Intn(5)
		c := frustratedModel(rng, n).Compile()
		want := bruteForceMin(c)
		pt := &ParallelTempering{Replicas: 6, Sweeps: 300, Reads: 4, Seed: int64(trial + 1)}
		ss, err := pt.Sample(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := ss.Best().Energy; math.Abs(got-want) > 1e-9 {
			t.Errorf("trial %d: PT best %g, exact %g", trial, got, want)
		}
	}
}

func TestSchedules(t *testing.T) {
	g := GeometricSchedule{Min: 0.1, Max: 10}
	if b := g.Beta(0, 100); math.Abs(b-0.1) > 1e-12 {
		t.Errorf("geometric start = %g", b)
	}
	if b := g.Beta(99, 100); math.Abs(b-10) > 1e-9 {
		t.Errorf("geometric end = %g", b)
	}
	// Monotone nondecreasing.
	prev := 0.0
	for i := 0; i < 100; i++ {
		b := g.Beta(i, 100)
		if b < prev {
			t.Fatalf("geometric schedule decreased at %d", i)
		}
		prev = b
	}
	l := LinearSchedule{Min: 1, Max: 3}
	if b := l.Beta(50, 101); math.Abs(b-2) > 1e-9 {
		t.Errorf("linear midpoint = %g", b)
	}
	cs := ConstantSchedule{Value: 2.5}
	if cs.Beta(0, 10) != 2.5 || cs.Beta(9, 10) != 2.5 {
		t.Error("constant schedule not constant")
	}
	// Single-sweep degenerate case returns Max.
	if g.Beta(0, 1) != 10 {
		t.Error("single-sweep geometric should return Max")
	}
}

func TestDefaultScheduleScalesWithCoefficients(t *testing.T) {
	m := qubo.New(4)
	m.AddLinear(0, -100)
	m.AddLinear(1, 0.01)
	s := DefaultSchedule(m.Compile())
	if s.Min <= 0 || s.Max <= s.Min {
		t.Errorf("bad default schedule %+v", s)
	}
	// Hot β should be small relative to the big coefficient.
	if s.Min > 0.01 {
		t.Errorf("βmin = %g, expected < 0.01 for coefficient 100", s.Min)
	}
	// Flat model fallback.
	flat := DefaultSchedule(qubo.New(3).Compile())
	if flat.Min <= 0 || flat.Max <= 0 {
		t.Errorf("flat fallback bad: %+v", flat)
	}
}

func TestSampleSetAggregation(t *testing.T) {
	raw := []Sample{
		{X: []Bit{1, 0}, Energy: 1, Occurrences: 1},
		{X: []Bit{1, 0}, Energy: 1, Occurrences: 1},
		{X: []Bit{0, 0}, Energy: -1, Occurrences: 1},
	}
	ss := aggregate(raw)
	if ss.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ss.Len())
	}
	if ss.Best().Energy != -1 {
		t.Errorf("Best = %g", ss.Best().Energy)
	}
	if ss.Samples[1].Occurrences != 2 {
		t.Errorf("duplicate not merged: %d", ss.Samples[1].Occurrences)
	}
	if ss.TotalReads() != 3 {
		t.Errorf("TotalReads = %d", ss.TotalReads())
	}
	if gf := ss.GroundFraction(0); math.Abs(gf-1.0/3.0) > 1e-9 {
		t.Errorf("GroundFraction = %g", gf)
	}
	if gf := ss.GroundFraction(2); gf != 1 {
		t.Errorf("GroundFraction(2) = %g", gf)
	}
}

func TestBestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Best on empty set did not panic")
		}
	}()
	(&SampleSet{}).Best()
}

func TestSubSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := subSeed(1, i)
		if seen[s] {
			t.Fatalf("subSeed collision at %d", i)
		}
		seen[s] = true
	}
}

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		hits := make([]int, n)
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		parallelFor(n, workers, func(i int) {
			<-mu
			hits[i]++
			mu <- struct{}{}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d index %d ran %d times", workers, i, h)
			}
		}
	}
	parallelFor(0, 4, func(int) { t.Fatal("body ran for n=0") })
}

func TestEnergyConservationDuringAnneal(t *testing.T) {
	// Property: annealOnce returns a kernel with a complete assignment
	// whose incremental energy agrees with Compiled.Energy to within the
	// drift tolerance, and whose ExactEnergy relabel is exact.
	f := func(seed int64) bool {
		mrng := rand.New(rand.NewSource(seed))
		c := frustratedModel(mrng, 10).Compile()
		betas := []float64{0.1, 0.5, 1, 2, 5}
		rng := newRNG(seed, 0)
		k, done := annealOnce(context.Background(), c, randomBits(rng, c.N), betas, rng)
		if done != len(betas) || len(k.X()) != c.N {
			return false
		}
		if math.Abs(k.Energy()-c.Energy(k.X())) > 1e-9 {
			return false
		}
		return k.ExactEnergy() == c.Energy(k.X())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidateSchedule(t *testing.T) {
	if err := validateSchedule(ConstantSchedule{Value: -1}, 10); err == nil {
		t.Error("negative β accepted")
	}
	if err := validateSchedule(ConstantSchedule{Value: 1}, 10); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := validateSchedule(nil, 10); err != nil {
		t.Errorf("nil schedule rejected: %v", err)
	}
}

func TestSamplerStringForms(t *testing.T) {
	sa := &SimulatedAnnealer{}
	if sa.String() == "" {
		t.Error("empty String()")
	}
	ss := &SampleSet{}
	if ss.String() != "SampleSet(empty)" {
		t.Errorf("String = %q", ss.String())
	}
}

// Regression: String must be total on the nil receiver too — error
// paths hand a nil *SampleSet (alongside a non-nil error) to %v
// logging, which dereferenced Samples and panicked inside fmt.
func TestSampleSetStringNil(t *testing.T) {
	var ss *SampleSet
	if got := ss.String(); got != "SampleSet(empty)" {
		t.Errorf("nil String = %q, want SampleSet(empty)", got)
	}
	if got := fmt.Sprintf("result: %v", ss); got != "result: SampleSet(empty)" {
		t.Errorf("fmt rendering = %q", got)
	}
}

func TestSampleSetStatistics(t *testing.T) {
	ss := &SampleSet{Samples: []Sample{
		{X: []Bit{0}, Energy: -2, Occurrences: 1},
		{X: []Bit{1}, Energy: 2, Occurrences: 3},
	}}
	if got := ss.MeanEnergy(); math.Abs(got-1) > 1e-9 {
		t.Errorf("mean = %g, want 1", got)
	}
	// Variance: (9 + 3*1)/4 = 3 → std = sqrt(3).
	if got := ss.StdDevEnergy(); math.Abs(got-math.Sqrt(3)) > 1e-9 {
		t.Errorf("std = %g, want sqrt(3)", got)
	}
	lo, hi := ss.EnergyRange()
	if lo != -2 || hi != 2 {
		t.Errorf("range = [%g,%g]", lo, hi)
	}
	empty := &SampleSet{}
	if empty.MeanEnergy() != 0 || empty.StdDevEnergy() != 0 {
		t.Error("empty stats should be zero")
	}
	if lo, hi := empty.EnergyRange(); lo != 0 || hi != 0 {
		t.Error("empty range should be zero")
	}
}
