package qsmt

// Benchmark harness for the paper's evaluation artifacts:
//
//   - BenchmarkTable1_Row*: the five sample constraints of Table 1, each
//     solved end to end (encode → anneal → decode → check), including
//     the sequential pipelines of §4.12.
//   - BenchmarkFigure1_*: the per-stage breakdown of the Figure 1
//     pipeline (binary-variable/QUBO encoding, annealing, decoding).
//   - BenchmarkScaling_*: Ext-A, solve time versus witness length.
//   - BenchmarkReads_*: Ext-B, annealing cost versus read count.
//   - BenchmarkBaseline_*: Ext-C, the classical comparators on the same
//     constraints.
//   - BenchmarkTierCrossover: exact enumeration against the default
//     annealer by model size, the measurement behind
//     DefaultExactShardVars.
//   - BenchmarkOptimizeShapes: the default Optimize on the benchmark's
//     four optimize shapes, with the objective it reaches.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/baseline"
	"qsmt/internal/core"
	"qsmt/internal/qubo"
)

// benchSolver uses the paper-equivalent sampler configuration.
func benchSolver(seed int64) *Solver {
	return NewSolver(&Options{
		Sampler: &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: seed},
	})
}

// ---- Table 1 ----

func BenchmarkTable1_Row1_ReverseReplace(b *testing.B) {
	s := benchSolver(1)
	p := NewPipeline(Reverse("hello")).Replace('e', 'a')
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.Run(p)
		if err != nil || res.Output != "ollah" {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

func BenchmarkTable1_Row2_Palindrome6(b *testing.B) {
	s := benchSolver(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveString(Palindrome(6)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Row3_RegexABC5(b *testing.B) {
	s := benchSolver(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveString(Regex("a[bc]+", 5)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_Row4_ConcatReplaceAll(b *testing.B) {
	s := benchSolver(4)
	p := NewPipeline(Concat("hello", " world")).ReplaceAll('l', 'x')
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.Run(p)
		if err != nil || res.Output != "hexxo worxd" {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

func BenchmarkTable1_Row5_IndexOfHi(b *testing.B) {
	s := benchSolver(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveString(IndexOf("hi", 2, 6)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 1 stage breakdown ----

func BenchmarkFigure1_EncodeQUBO(b *testing.B) {
	c := &core.Palindrome{N: 6, Printable: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.BuildModel(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1_Anneal(b *testing.B) {
	c := &core.Palindrome{N: 6, Printable: true}
	m, err := c.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	compiled := m.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa := &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: int64(i + 1)}
		if _, err := sa.Sample(compiled); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1_DecodeCheck(b *testing.B) {
	c := &core.Palindrome{N: 6, Printable: true}
	m, err := c.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	sa := &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: 1}
	ss, err := sa.Sample(m.Compile())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := false
		for _, sample := range ss.Samples {
			w, derr := c.Decode(sample.X)
			if derr == nil && c.Check(w) == nil {
				found = true
				break
			}
		}
		if !found {
			b.Fatal("no valid sample")
		}
	}
}

// ---- Ext-A: scaling with witness length ----

func scalingBench(b *testing.B, mk func(n int) Constraint, n int) {
	b.Helper()
	s := benchSolver(int64(n))
	c := mk(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaling_Equality(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			scalingBench(b, func(n int) Constraint {
				target := make([]byte, n)
				for i := range target {
					target[i] = 'a' + byte(i%26)
				}
				return Equality(string(target))
			}, n)
		})
	}
}

func BenchmarkScaling_Palindrome(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			scalingBench(b, func(n int) Constraint { return Palindrome(n) }, n)
		})
	}
}

func BenchmarkScaling_Regex(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			scalingBench(b, func(n int) Constraint { return Regex("a[bc]+", n) }, n)
		})
	}
}

// ---- Ext-B: reads ablation ----

func BenchmarkReads_Palindrome6(b *testing.B) {
	c := &core.Palindrome{N: 6, Printable: true}
	m, err := c.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	compiled := m.Compile()
	for _, reads := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("reads=%d", reads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sa := &anneal.SimulatedAnnealer{Reads: reads, Sweeps: 1000, Seed: int64(i + 1)}
				if _, err := sa.Sample(compiled); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ext-C: classical baselines ----

func BenchmarkBaseline_Direct(b *testing.B) {
	var d baseline.Direct
	cs := []core.Constraint{
		&core.Equality{Target: "hello!"},
		&core.Palindrome{N: 6},
		&core.Regex{Pattern: "a[bc]+", Length: 5},
		&core.Includes{T: "hello world", S: "o w"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			if _, err := d.Solve(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBaseline_BruteForcePalindrome(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			bf := &baseline.BruteForce{Alphabet: []byte("abcdefgh")}
			c := &core.Palindrome{N: n}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bf.Solve(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBaseline_AnnealerPalindrome(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchSolver(int64(n))
			c := PalindromeRaw(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkSubstrate_QUBOEnergy(b *testing.B) {
	c := &core.Palindrome{N: 16, Printable: true}
	m, err := c.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	compiled := m.Compile()
	x := make([]qubo.Bit, compiled.N)
	for i := range x {
		x[i] = qubo.Bit(i % 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = compiled.Energy(x)
	}
}

func BenchmarkSubstrate_FlipDelta(b *testing.B) {
	c := &core.Palindrome{N: 16, Printable: true}
	m, err := c.BuildModel()
	if err != nil {
		b.Fatal(err)
	}
	compiled := m.Compile()
	x := make([]qubo.Bit, compiled.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = compiled.FlipDelta(x, i%compiled.N)
	}
}

// ---- sweep-throughput benchmarks: FlipDelta path vs incremental kernel ----
//
// One benchmark op is one full Metropolis sweep (N proposals) at a cold
// β, the regime where almost every proposal is rejected and the two
// layouts differ most: the FlipDelta path pays O(degree) per proposal,
// the kernel pays O(1) per proposal and O(degree) only on acceptance.
// The "proposals/s" metric is directly comparable across the two.

// sweepModel builds a deterministic random QUBO for throughput
// benchmarking. dense couples every pair; sparse couples each variable to
// ~8 pseudo-random partners.
func sweepModel(n int, dense bool) *qubo.Compiled {
	m := qubo.New(n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(int64(state>>11))/float64(1<<52) - 1 // ≈ uniform [-1,1)
	}
	for i := 0; i < n; i++ {
		m.AddLinear(i, next())
	}
	if dense {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.AddQuadratic(i, j, next())
			}
		}
	} else {
		for i := 0; i < n; i++ {
			for k := 0; k < 8; k++ {
				j := int((uint64(i)*2654435761 + uint64(k)*40503) % uint64(n))
				if j != i {
					m.AddQuadratic(i, j, next())
				}
			}
		}
	}
	return m.Compile()
}

// crossoverModel builds a deterministic random QUBO of n variables in
// which every variable couples to 4 random partners, so the mean degree
// is about 8, with uniform [-1, 1) coefficients.
func crossoverModel(n int) *qubo.Compiled {
	rng := rand.New(rand.NewSource(int64(n)))
	m := qubo.New(n)
	for i := 0; i < n; i++ {
		m.AddLinear(i, 2*rng.Float64()-1)
		for k := 0; k < 4; k++ {
			if j := rng.Intn(n); j != i {
				m.AddQuadratic(i, j, 2*rng.Float64()-1)
			}
		}
	}
	return m.Compile()
}

// BenchmarkTierCrossover times the two tiers a coupled plan entry can
// take on random degree-~8 QUBOs (crossoverModel) of n = 8…24 variables:
// single-worker exact enumeration keeping 16 candidates, as the exact
// tier runs it, against the default 64-read × 1000-sweep simulated
// annealer. Where the rows cross sets DefaultExactShardVars; the
// figures are recorded in EXPERIMENTS.md.
func BenchmarkTierCrossover(b *testing.B) {
	for _, n := range []int{8, 12, 16, 18, 20, 22, 24} {
		c := crossoverModel(n)
		for _, tc := range []struct {
			name    string
			sampler Sampler
		}{
			{"exact", &anneal.ExactSolver{Workers: 1, MaxStates: 16}},
			{"sa", &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: 1}},
		} {
			b.Run(fmt.Sprintf("n%d/%s", n, tc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := tc.sampler.Sample(c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func sweepCases() []struct {
	name string
	c    *qubo.Compiled
} {
	return []struct {
		name string
		c    *qubo.Compiled
	}{
		{"dense_n256", sweepModel(256, true)},
		{"sparse_n2048", sweepModel(2048, false)},
	}
}

// sweepBeta places the sweep benchmarks in the rejection-dominated
// regime that dominates wall-clock in practice: DefaultSchedule runs its
// geometric ladder up to ln(100)/minΔ (≥ 12 for unit-scale penalties),
// so the cold half of every real anneal sweeps at β of this order, and
// that is where raw proposal throughput — not acceptance bookkeeping —
// is the bottleneck. The scalar kernel's cost is β-insensitive (it pays
// its math.Exp on every uphill proposal whether or not it accepts), so
// the scalar rows measure the same at any β and the packed/scalar
// comparison is fair.
const sweepBeta = 12.0

// sweepPair holds a scalar Kernel and a 64-replica PackedKernel over
// the same model, so one step runs one sweep of each back to back.
type sweepPair struct {
	c     *qubo.Compiled
	k     *anneal.Kernel
	pk    *anneal.PackedKernel
	state uint64
}

func newSweepPair(c *qubo.Compiled) *sweepPair {
	k := anneal.NewKernel(c)
	x := make([]qubo.Bit, c.N)
	for i := range x {
		x[i] = qubo.Bit(i % 2)
	}
	k.Reset(x)
	pk := anneal.NewPackedKernel(c, 1, 0)
	pk.InitRandom()
	pk.Rebuild()
	return &sweepPair{c: c, k: k, pk: pk, state: 1}
}

// step runs one scalar Metropolis sweep (N proposals) and one packed
// sweep (N proposals in each of the 64 lanes) at sweepBeta and returns
// the time each took.
func (p *sweepPair) step() (scalar, packed time.Duration) {
	start := time.Now()
	for v := 0; v < p.c.N; v++ {
		d := p.k.Delta(v)
		p.state ^= p.state << 13
		p.state ^= p.state >> 7
		p.state ^= p.state << 17
		if d <= 0 || float64(p.state>>11)*0x1p-53 < math.Exp(-sweepBeta*d) {
			p.k.Flip(v)
		}
	}
	mid := time.Now()
	p.pk.Sweep(sweepBeta)
	return mid.Sub(start), time.Since(mid)
}

// BenchmarkSubstrate_PackedSpeedup measures the scalar kernel and the
// bit-parallel 64-replica kernel drift-immune: each benchmark op runs
// one scalar sweep and one packed sweep back to back and times them
// separately, so both kernels see the same clock-frequency window
// (ratios of separately-run benchmark rows wander with the clock).
// It reports scalar and packed proposals/s and x_speedup, their ratio.
func BenchmarkSubstrate_PackedSpeedup(b *testing.B) {
	for _, tc := range sweepCases() {
		b.Run(tc.name, func(b *testing.B) {
			p := newSweepPair(tc.c)
			var scalarT, packedT time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				s, pk := p.step()
				scalarT += s
				packedT += pk
			}
			b.StopTimer()
			scalarRate := float64(b.N) * float64(tc.c.N) / scalarT.Seconds()
			packedRate := float64(b.N) * float64(tc.c.N) * anneal.Lanes / packedT.Seconds()
			b.ReportMetric(scalarRate, "scalar_proposals/s")
			b.ReportMetric(packedRate, "packed_proposals/s")
			b.ReportMetric(packedRate/scalarRate, "x_speedup")
		})
	}
}

// TestPackedKernelTenfoldScalar holds the packed kernel to its bar:
// at least 10x the scalar kernel's proposals/s on both sweep models.
// Like BenchmarkSubstrate_PackedSpeedup it interleaves one scalar and
// one packed sweep per step, for 200 ms of steps per model after a
// short warm-up; it takes the median of the per-step speedups, so a
// step in which the scheduler preempted one kernel (as happens when
// other test binaries share the CPUs) does not decide the verdict.
// Timing means nothing under the race detector, so the test is
// skipped there and under -short.
func TestPackedKernelTenfoldScalar(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test: skipped under -short and -race")
	}
	for _, tc := range sweepCases() {
		p := newSweepPair(tc.c)
		for i := 0; i < 20; i++ {
			p.step()
		}
		var speedups []float64
		for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
			s, pk := p.step()
			speedups = append(speedups, anneal.Lanes*s.Seconds()/pk.Seconds())
		}
		sort.Float64s(speedups)
		if x := speedups[len(speedups)/2]; x < 10 {
			t.Errorf("%s: packed kernel is %.2fx the scalar kernel, want >= 10x", tc.name, x)
		} else {
			t.Logf("%s: packed kernel is %.2fx the scalar kernel", tc.name, x)
		}
	}
}

func BenchmarkSubstrate_FlipDeltaSweep(b *testing.B) {
	for _, tc := range sweepCases() {
		b.Run(tc.name, func(b *testing.B) {
			x := make([]qubo.Bit, tc.c.N)
			for i := range x {
				x[i] = qubo.Bit(i % 2)
			}
			state := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for v := 0; v < tc.c.N; v++ {
					d := tc.c.FlipDelta(x, v)
					state ^= state << 13
					state ^= state >> 7
					state ^= state << 17
					if d <= 0 || float64(state>>11)*0x1p-53 < math.Exp(-sweepBeta*d) {
						x[v] ^= 1
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(tc.c.N)/b.Elapsed().Seconds(), "proposals/s")
		})
	}
}

// BenchmarkOptimizeShapes times the default Optimize on the four
// optimize shapes of the repository benchmark (PrefixOf or Palindrome
// hard, MinLength or MinEditsFrom objective) at n = 4–6, and reports
// the objective each reaches.
func BenchmarkOptimizeShapes(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		for _, shape := range []struct {
			name string
			hard Constraint
			obj  Constraint
		}{
			{"prefix+minlength", PrefixOf("ab", n), MinLength(n)},
			{"palindrome+minlength", Palindrome(n), MinLength(n)},
			{"prefix+minedits", PrefixOf("q", n), MinEditsFrom("abcdef"[:n])},
			{"palindrome+minedits", Palindrome(n), MinEditsFrom("abcdef"[:n])},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				s := NewSolver(&Options{Seed: 1})
				var res *Result
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = s.Optimize([]Constraint{shape.hard}, []SoftConstraint{Soft(shape.obj, 1)}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Objective, "objective")
			})
		}
	}
}
