package portfolio

// arms.go assembles the concrete arm set for one compiled shard. The
// tiers mirror the sequential shard planner — closed-form shards never
// reach a race (they are solved before planning), exact enumeration
// handles small shards — but the race extends the exact tier upward
// (enumerating 2^13..2^20 states often beats a full annealing budget
// and is definitive when it lands) and runs the annealers under the
// adaptive read controller instead of a fixed budget.

import (
	"context"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// Config assembles the arm set for one shard race.
type Config struct {
	// Compiled is the shard model every arm minimizes.
	Compiled *qubo.Compiled
	// Reads and Sweeps are the sequential tier's sampler budget the
	// adaptive arms adapt (defaults 64 / 1000).
	Reads  int
	Sweeps int
	// Seed is the race's root seed; every arm derives its own stream.
	Seed int64
	// Seeds are warm-start states for the warm annealing arm (and the
	// descent arm's polish starts); nil drops the warm arm.
	Seeds [][]qubo.Bit
	// MaxExactVars is the exact-enumeration arm's ceiling. Racing makes
	// enumeration safe well past the sequential ExactShardVars cutoff —
	// a slow enumeration simply loses. Non-positive disables the arm;
	// values above anneal.MaxExactVars are clamped. Default 20.
	MaxExactVars int
	// Candidates caps the exact arm's returned states (MaxStates).
	Candidates int
	// Stagger delays the backup arms (tempering, scalar SA): when the
	// primary arms settle the race first, the backups never run and the
	// race costs no extra CPU. Default 2ms; negative launches backups
	// immediately.
	Stagger time.Duration
	// NoBackups drops the tempering and scalar arms entirely (the
	// remote server uses it: its job budget is the client's contract).
	NoBackups bool
}

// DefaultMaxExactVars is the exact-arm ceiling when Config leaves it 0:
// 2^20 states enumerate in low milliseconds across workers, comparable
// to one full annealing budget on shards that size.
const DefaultMaxExactVars = 20

// DefaultStagger is the backup-arm launch delay when Config leaves it 0.
const DefaultStagger = 2 * time.Millisecond

// instantExactVars is the shard size at or below which exact
// enumeration is effectively instant (2^16 states, well under a
// millisecond). On such shards every other arm is staggered behind the
// exact arm: it wins before any timer fires, the annealers never launch,
// and the race costs one enumeration instead of one enumeration plus
// several cancelled annealing chunks — the difference between a ~2x and
// a >3x tail-latency win on exact-dominated workloads.
const instantExactVars = 16

// armSeedStride decorrelates per-arm RNG streams.
const armSeedStride = 0x9e3779b9

// NaiveLowerBound is the trivially valid QUBO lower bound: the offset
// plus every negative coefficient, as if each could be earned
// independently. E(x) = offset + Σ dᵢxᵢ + Σ wᵢⱼxᵢxⱼ ≥ offset +
// Σ min(0,dᵢ) + Σ min(0,wᵢⱼ). It is tight exactly when the negative
// terms are simultaneously satisfiable — the shape of linear-dominant
// penalty shards — and loose otherwise, in which case the bound simply
// never fires and the hit-count rule decides.
func NaiveLowerBound(c *qubo.Compiled) float64 {
	bound := c.Offset
	for _, d := range c.Linear {
		if d < 0 {
			bound += d
		}
	}
	for i := 0; i < c.N; i++ {
		for p := c.RowStart[i]; p < c.RowStart[i+1]; p++ {
			if int(c.NeighJ[p]) > i && c.NeighW[p] < 0 { // each coupler is stored twice
				bound += c.NeighW[p]
			}
		}
	}
	return bound
}

// BuildArms assembles the arm set for cfg and returns it with the
// shard's proven lower bound. The caller races them with Race.
func BuildArms(cfg Config) ([]Arm, float64) {
	c := cfg.Compiled
	reads, sweeps := cfg.Reads, cfg.Sweeps
	if reads <= 0 {
		reads = 64
	}
	if sweeps <= 0 {
		sweeps = 1000
	}
	maxExact := cfg.MaxExactVars
	if maxExact == 0 {
		maxExact = DefaultMaxExactVars
	}
	if maxExact > anneal.MaxExactVars {
		maxExact = anneal.MaxExactVars
	}
	candidates := cfg.Candidates
	if candidates <= 0 {
		candidates = 16
	}
	stagger := cfg.Stagger
	if stagger == 0 {
		stagger = DefaultStagger
	}
	if stagger < 0 {
		stagger = 0
	}
	bound := NaiveLowerBound(c)

	var arms []Arm

	// base delays every non-exact arm on instant-exact shards (see
	// instantExactVars); elsewhere the primaries launch immediately.
	var base time.Duration
	if maxExact > 0 && c.N <= maxExact {
		arms = append(arms, Arm{
			Kind:       ArmExact,
			Definitive: true,
			Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				ex := &anneal.ExactSolver{MaxStates: candidates}
				return ex.SampleContext(ctx, c)
			},
		})
		if c.N <= instantExactVars {
			base = stagger
		}
	}

	if len(cfg.Seeds) > 0 {
		seeds := cfg.Seeds
		arms = append(arms, Arm{
			Kind:  ArmWarmSA,
			Delay: base,
			Run: func(ctx context.Context, t *Telemetry) (*anneal.SampleSet, error) {
				return AdaptiveSample(ctx, c, AdaptiveConfig{
					Reads: reads, Sweeps: sweeps,
					Seed:  cfg.Seed + int64(ArmWarmSA)*armSeedStride,
					Seeds: seeds,
					Bound: bound, HasBound: true,
				}, t)
			},
		})
	}

	arms = append(arms, Arm{
		Kind:  ArmColdSA,
		Delay: base,
		Run: func(ctx context.Context, t *Telemetry) (*anneal.SampleSet, error) {
			return AdaptiveSample(ctx, c, AdaptiveConfig{
				Reads: reads, Sweeps: sweeps,
				Seed:  cfg.Seed + int64(ArmColdSA)*armSeedStride,
				Bound: bound, HasBound: true,
			}, t)
		},
	})

	// Greedy descent from baseline-propagation seeds: near-free, wins
	// only when it proves the bound (linear-dominant shards), otherwise
	// a fallback of last resort.
	arms = append(arms, Arm{
		Kind:     ArmDescent,
		Advisory: true,
		Delay:    base,
		Run: func(ctx context.Context, t *Telemetry) (*anneal.SampleSet, error) {
			seedStates := cfg.Seeds
			if seedStates == nil {
				seedStates = anneal.GreedySeeds(c, 4, cfg.Seed+int64(ArmDescent)*armSeedStride)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			raw := make([]anneal.Sample, 0, len(seedStates))
			for _, x := range seedStates {
				polished := anneal.PolishSeed(c, x, cfg.Seed+int64(ArmDescent)*armSeedStride)
				raw = append(raw, anneal.Sample{X: polished, Energy: c.Energy(polished), Occurrences: 1})
			}
			ss := anneal.Aggregate(raw)
			if ss.Len() > 0 && ss.Best().Energy <= bound+boundTol(bound) {
				t.Proven = true
			}
			return ss, nil
		},
	})

	if !cfg.NoBackups {
		arms = append(arms, Arm{
			Kind:  ArmTempering,
			Delay: base + stagger,
			Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				pt := &anneal.ParallelTempering{
					Sweeps: sweeps,
					Seed:   cfg.Seed + int64(ArmTempering)*armSeedStride,
				}
				return pt.SampleContext(ctx, c)
			},
		})
		arms = append(arms, Arm{
			Kind:  ArmScalarSA,
			Delay: base + 2*stagger,
			Run: func(ctx context.Context, t *Telemetry) (*anneal.SampleSet, error) {
				return AdaptiveSample(ctx, c, AdaptiveConfig{
					Reads: reads, Sweeps: sweeps,
					Seed:  cfg.Seed + int64(ArmScalarSA)*armSeedStride,
					Bound: bound, HasBound: true,
					Scalar: true,
				}, t)
			},
		})
	}

	return arms, bound
}
