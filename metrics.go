package qsmt

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

// SolveStats reports how a solve went: how much work each phase of the
// encode → sample → decode → check loop did and what the sampler's output
// looked like. Every successful Result carries one; the same numbers are
// mirrored into Options.Metrics when set.
type SolveStats struct {
	// Sampler names what sampled the final attempt: the configured
	// sampler's type when some plan entry reached the sampler tier, else
	// "exact" — every entry was solved closed-form or by exact
	// enumeration, or reused from an incremental session's memo, and a
	// model that presolve eliminated has no entry at all.
	Sampler string

	Attempts          int // sampler invocations (1 = first try)
	Reads             int // total annealer reads consumed across attempts
	Candidates        int // decoded low-energy samples examined
	VerifyFailures    int // candidates whose decoded witness failed Check
	PenaltyViolations int // candidates whose bitstring failed Decode

	BestEnergy     float64 // lowest sample energy seen across attempts
	MeanEnergy     float64 // occurrence-weighted mean of the last sample set
	GroundFraction float64 // ground-state hit rate of the last sample set

	Compile      time.Duration // BuildModel + QUBO compilation
	Presolve     time.Duration // QUBO presolve stage (0 when disabled)
	Sample       time.Duration // total time inside the sampler
	DecodeVerify time.Duration // total time decoding and checking candidates

	// PresolveRounds is how many fixed-point rounds the presolver ran;
	// 0 means the presolve stage was disabled (the stage itself always
	// runs at least one round when on).
	PresolveRounds int
	// PresolveEliminated is how many binary variables presolve removed
	// (persistency fixes, pendant folds and pair merges combined).
	PresolveEliminated int
	// PresolveRatio is the fraction of variables eliminated, in [0, 1].
	PresolveRatio float64
	// WarmSeeded counts sampling operations (whole-model attempts or
	// sampled shards) that were offered warm-start states.
	WarmSeeded int
	// WarmHits counts warm-seeded sampling operations whose best sample
	// came from a warm-started read — WarmHits/WarmSeeded is the
	// warm-start hit rate.
	WarmHits int

	// Shards is how many connected-component shards the solve's plan
	// had: 1 for a connected model, 0 for a model that presolve
	// eliminated, and 0 for a whole-model solve (a custom Sampler or
	// Optimize without Options.Shard). Result.Shards reports 1 in both
	// zero cases.
	Shards int
	// ExactShards counts shards solved without the configured sampler:
	// closed-form (coupler-free) shards plus exhaustively enumerated
	// small shards.
	ExactShards int
	// ShardFallback reports that the model was planned by components
	// but did not decompose: the plan had one shard (a connected model)
	// or none (presolve eliminated every variable).
	ShardFallback bool
	// CacheHits counts compile-cache hits during this solve (whole-model
	// and per-shard compilations combined).
	CacheHits int

	// Incremental reports that the solve ran through an
	// IncrementalSession: components resolved against the session memo,
	// touched ones re-presolved and re-sampled, untouched ones reused.
	Incremental bool
	// IncrementalHits counts components whose memoized sample set was
	// reused outright — no presolve, no compile, no sampling.
	IncrementalHits int
	// IncrementalParentSeeds counts sampled components that were seeded
	// from the parent frame's witness (anneal.PolishSeed).
	IncrementalParentSeeds int
	// IncrementalPresolveReuses counts re-sampled components that reused
	// a memoized component presolve instead of re-running the stage.
	IncrementalPresolveReuses int

	// KernelProposals, KernelFlips and KernelResyncs sum the substrate
	// kernel work behind this solve across attempts and shards: lane
	// proposals examined, accepted lane flips, and drift-bound exact
	// rebuilds. Zero for samplers that do not run on an annealing kernel
	// (exact, random). KernelPacked reports that at least one sample set
	// came off the bit-parallel 64-lane packed kernel rather than the
	// scalar reference.
	KernelProposals int64
	KernelFlips     int64
	KernelResyncs   int64
	KernelPacked    bool

	// Optimize-mode fields, populated by Solver.Optimize only. SoftTerms
	// is the number of soft constraints layered onto the hard model;
	// HardWeight is the penalty multiplier M applied to the hard model;
	// ObjectiveImprovements counts incumbent replacements across the
	// candidate scans. Objective/ObjectiveBound/ObjectiveOptimal mirror
	// the Result fields of the same names.
	SoftTerms             int
	HardWeight            float64
	ObjectiveImprovements int
	Objective             float64
	ObjectiveBound        float64
	ObjectiveOptimal      bool

	// bestSet tracks whether BestEnergy holds a real sample energy yet;
	// without it an empty first sample set would leave the zero value
	// looking like a legitimate best of 0.
	bestSet bool
	// objectiveSet guards the objective gauge the same way bestSet
	// guards the energy gauges.
	objectiveSet bool
}

// observeKernel folds one sample set's substrate kernel counters into
// the solve totals.
func (st *SolveStats) observeKernel(ks anneal.KernelStats) {
	st.KernelProposals += ks.Proposals
	st.KernelFlips += ks.Flips
	st.KernelResyncs += ks.Resyncs
	st.KernelPacked = st.KernelPacked || ks.Packed
}

// observeBest folds one sample-set best energy into the running minimum.
func (st *SolveStats) observeBest(e float64) {
	if !st.bestSet || e < st.BestEnergy {
		st.BestEnergy = e
		st.bestSet = true
	}
}

// SolverMetrics is the registry-backed view of SolveStats: a Solver with
// Options.Metrics set records every solve (and enumeration) here. All
// metrics are plain families, so registering them up front — as annealerd
// does — makes the full solver section of /metrics visible at zero before
// the first solve. A nil *SolverMetrics disables recording.
type SolverMetrics struct {
	Solves            *obs.Counter // qsmt_solves_total
	SolveFailures     *obs.Counter // qsmt_solve_failures_total
	Attempts          *obs.Counter // qsmt_solve_attempts_total
	Reads             *obs.Counter // qsmt_solve_reads_total
	Candidates        *obs.Counter // qsmt_candidates_total
	VerifyFailures    *obs.Counter // qsmt_verify_failures_total
	PenaltyViolations *obs.Counter // qsmt_penalty_violations_total

	CompileSeconds *obs.Histogram // qsmt_compile_seconds
	SampleSeconds  *obs.Histogram // qsmt_sample_seconds
	DecodeSeconds  *obs.Histogram // qsmt_decode_verify_seconds

	GroundFraction *obs.Histogram // qsmt_ground_fraction
	BestEnergy     *obs.Gauge     // qsmt_best_energy
	MeanEnergy     *obs.Gauge     // qsmt_mean_energy

	// Batch/shard layer. Shard counters are recorded per solve (sharded
	// solves happen inside and outside SolveBatch); the batch counters
	// are recorded once per SolveBatch/EnumerateBatch call.
	Batches          *obs.Counter   // qsmt_batch_total
	BatchConstraints *obs.Counter   // qsmt_batch_constraints_total
	BatchFailures    *obs.Counter   // qsmt_batch_constraint_failures_total
	BatchSeconds     *obs.Histogram // qsmt_batch_seconds
	BatchInFlight    *obs.Gauge     // qsmt_batch_inflight
	Shards           *obs.Counter   // qsmt_batch_shards_total
	ExactShards      *obs.Counter   // qsmt_batch_exact_shards_total
	ShardFallbacks   *obs.Counter   // qsmt_batch_shard_fallbacks_total

	// Presolve stage and warm-start seeding, recorded per solve that ran
	// the stage. The warm-hit counters divide to the fleet-wide
	// warm-start hit rate.
	Presolves          *obs.Counter   // qsmt_presolve_total
	PresolveEliminated *obs.Counter   // qsmt_presolve_vars_eliminated_total
	PresolveRounds     *obs.Counter   // qsmt_presolve_rounds_total
	PresolveRatio      *obs.Histogram // qsmt_presolve_reduction_ratio
	PresolveSeconds    *obs.Histogram // qsmt_presolve_seconds
	WarmSeeded         *obs.Counter   // qsmt_presolve_warm_seeded_total
	WarmHits           *obs.Counter   // qsmt_presolve_warm_hits_total

	// Incremental sessions. Recorded per IncrementalSession.Solve; the
	// hit counters divide against the component counter to the session
	// reuse rate, the headline number of the incremental path.
	IncrementalSolves         *obs.Counter   // qsmt_incremental_solves_total
	IncrementalComponents     *obs.Counter   // qsmt_incremental_components_total
	IncrementalHits           *obs.Counter   // qsmt_incremental_component_hits_total
	IncrementalParentSeeds    *obs.Counter   // qsmt_incremental_parent_seeds_total
	IncrementalPresolveReuses *obs.Counter   // qsmt_incremental_presolve_reuses_total
	IncrementalReuse          *obs.Histogram // qsmt_incremental_reuse_ratio

	// Compile cache. Counters advance by delta against the last synced
	// qubo.CacheStats snapshot, so one SolverMetrics should front one
	// cache (shared solvers sharing both is fine).
	CacheHits      *obs.Counter // qsmt_cache_hits_total
	CacheMisses    *obs.Counter // qsmt_cache_misses_total
	CacheEvictions *obs.Counter // qsmt_cache_evictions_total
	CacheCoalesced *obs.Counter // qsmt_cache_coalesced_total
	CacheEntries   *obs.Gauge   // qsmt_cache_entries

	// Optimize (MaxSAT/OMT) mode. Recorded per Solver.Optimize call on
	// top of the regular solve families; OptOptimal/OptSolves is the
	// proved-optimal rate, OptObjective tracks the most recent weighted
	// optimum.
	OptSolves       *obs.Counter   // qsmt_opt_solves_total
	OptFailures     *obs.Counter   // qsmt_opt_failures_total
	OptSoftTerms    *obs.Counter   // qsmt_opt_soft_terms_total
	OptImprovements *obs.Counter   // qsmt_opt_incumbent_improvements_total
	OptOptimal      *obs.Counter   // qsmt_opt_optimal_total
	OptObjective    *obs.Gauge     // qsmt_opt_objective
	OptGap          *obs.Histogram // qsmt_opt_bound_gap
	OptHardWeight   *obs.Gauge     // qsmt_opt_hard_weight

	// Retired with the portfolio race: the solver no longer races, so
	// these are never registered and stay nil (their nil-safe Value is
	// 0). They remain declared only because the repository benchmark
	// (perfbench) still reads them.
	PortfolioRaces      *obs.Counter
	PortfolioArmWins    *obs.CounterVec
	PortfolioCancels    *obs.Counter
	PortfolioReadsSaved *obs.Counter

	// Substrate kernel. Lane-level work behind every annealing sampler;
	// the accept-rate histogram divides flips by proposals per solve, the
	// regime the packed/scalar throughput trade-off hinges on.
	KernelProposals    *obs.Counter   // qsmt_kernel_lane_proposals_total
	KernelFlips        *obs.Counter   // qsmt_kernel_lane_flips_total
	KernelResyncs      *obs.Counter   // qsmt_kernel_resyncs_total
	KernelPackedSolves *obs.Counter   // qsmt_kernel_packed_solves_total
	KernelAcceptRate   *obs.Histogram // qsmt_kernel_accept_rate

	cacheMu   sync.Mutex
	lastCache qubo.CacheStats
}

// NewSolverMetrics registers the solver metric families on r and returns
// the handle to put in Options.Metrics. Registration is idempotent, so
// several solvers may share one registry.
func NewSolverMetrics(r *obs.Registry) *SolverMetrics {
	return &SolverMetrics{
		Solves:            r.Counter("qsmt_solves_total", "Solve calls that returned a verified witness."),
		SolveFailures:     r.Counter("qsmt_solve_failures_total", "Solve calls that returned an error (no model, unsat, cancelled)."),
		Attempts:          r.Counter("qsmt_solve_attempts_total", "Sampler invocations across all solves."),
		Reads:             r.Counter("qsmt_solve_reads_total", "Annealer reads consumed across all solves."),
		Candidates:        r.Counter("qsmt_candidates_total", "Low-energy samples decoded and checked."),
		VerifyFailures:    r.Counter("qsmt_verify_failures_total", "Candidates whose decoded witness failed the semantic check."),
		PenaltyViolations: r.Counter("qsmt_penalty_violations_total", "Candidates whose bitstring violated an encoding penalty (Decode failed)."),
		CompileSeconds:    r.Histogram("qsmt_compile_seconds", "Constraint build + QUBO compile time per solve.", obs.DefaultLatencyBuckets),
		SampleSeconds:     r.Histogram("qsmt_sample_seconds", "Total sampler time per solve.", obs.DefaultLatencyBuckets),
		DecodeSeconds:     r.Histogram("qsmt_decode_verify_seconds", "Total decode + check time per solve.", obs.DefaultLatencyBuckets),
		GroundFraction:    r.Histogram("qsmt_ground_fraction", "Ground-state hit rate of the final sample set per solve.", obs.FractionBuckets),
		BestEnergy:        r.Gauge("qsmt_best_energy", "Lowest sample energy of the most recent solve."),
		MeanEnergy:        r.Gauge("qsmt_mean_energy", "Mean sample energy of the most recent solve."),

		Batches:          r.Counter("qsmt_batch_total", "SolveBatch/EnumerateBatch calls."),
		BatchConstraints: r.Counter("qsmt_batch_constraints_total", "Constraints submitted across all batch calls."),
		BatchFailures:    r.Counter("qsmt_batch_constraint_failures_total", "Batch constraints that returned an error."),
		BatchSeconds:     r.Histogram("qsmt_batch_seconds", "Wall-clock time per batch call.", obs.DefaultLatencyBuckets),
		BatchInFlight:    r.Gauge("qsmt_batch_inflight", "Batch calls currently executing."),
		Shards:           r.Counter("qsmt_batch_shards_total", "Connected-component shards solved across all sharded solves."),
		ExactShards:      r.Counter("qsmt_batch_exact_shards_total", "Shards solved closed-form or by exact enumeration instead of the sampler."),
		ShardFallbacks:   r.Counter("qsmt_batch_shard_fallbacks_total", "Sharded solves whose model did not decompose (one component, or none left after presolve)."),

		Presolves:          r.Counter("qsmt_presolve_total", "Solves that ran the QUBO presolve stage."),
		PresolveEliminated: r.Counter("qsmt_presolve_vars_eliminated_total", "Binary variables eliminated by presolve (fixes, pendant folds, merges)."),
		PresolveRounds:     r.Counter("qsmt_presolve_rounds_total", "Fixed-point rounds run by the presolver."),
		PresolveRatio:      r.Histogram("qsmt_presolve_reduction_ratio", "Fraction of variables eliminated per presolved solve.", obs.FractionBuckets),
		PresolveSeconds:    r.Histogram("qsmt_presolve_seconds", "Presolve stage time per solve.", obs.DefaultLatencyBuckets),
		WarmSeeded:         r.Counter("qsmt_presolve_warm_seeded_total", "Sampling operations offered warm-start states."),
		WarmHits:           r.Counter("qsmt_presolve_warm_hits_total", "Warm-seeded sampling operations whose best sample was warm-started."),

		IncrementalSolves:         r.Counter("qsmt_incremental_solves_total", "Solves run through an IncrementalSession."),
		IncrementalComponents:     r.Counter("qsmt_incremental_components_total", "Connected components examined by incremental solves."),
		IncrementalHits:           r.Counter("qsmt_incremental_component_hits_total", "Components reused straight from the session memo."),
		IncrementalParentSeeds:    r.Counter("qsmt_incremental_parent_seeds_total", "Sampled components warm-started from the parent frame's witness."),
		IncrementalPresolveReuses: r.Counter("qsmt_incremental_presolve_reuses_total", "Re-sampled components that reused a memoized component presolve."),
		IncrementalReuse:          r.Histogram("qsmt_incremental_reuse_ratio", "Fraction of components reused from the memo per incremental solve.", obs.FractionBuckets),

		KernelProposals:    r.Counter("qsmt_kernel_lane_proposals_total", "Lane proposals examined by annealing kernels across all solves."),
		KernelFlips:        r.Counter("qsmt_kernel_lane_flips_total", "Lane flips accepted by annealing kernels across all solves."),
		KernelResyncs:      r.Counter("qsmt_kernel_resyncs_total", "Drift-bound exact field rebuilds run by annealing kernels."),
		KernelPackedSolves: r.Counter("qsmt_kernel_packed_solves_total", "Solves whose samples came off the bit-parallel packed kernel."),
		KernelAcceptRate:   r.Histogram("qsmt_kernel_accept_rate", "Accepted-flip fraction of lane proposals per solve.", obs.FractionBuckets),

		CacheHits:      r.Counter("qsmt_cache_hits_total", "Compile-cache hits."),
		CacheMisses:    r.Counter("qsmt_cache_misses_total", "Compile-cache misses."),
		CacheEvictions: r.Counter("qsmt_cache_evictions_total", "Compile-cache LRU evictions."),
		CacheCoalesced: r.Counter("qsmt_cache_coalesced_total", "Compile-cache lookups coalesced onto a concurrent in-flight compilation."),
		CacheEntries:   r.Gauge("qsmt_cache_entries", "Compiled models currently cached."),

		OptSolves:       r.Counter("qsmt_opt_solves_total", "Optimize calls that returned a feasible incumbent."),
		OptFailures:     r.Counter("qsmt_opt_failures_total", "Optimize calls that returned an error."),
		OptSoftTerms:    r.Counter("qsmt_opt_soft_terms_total", "Soft constraints layered across all Optimize calls."),
		OptImprovements: r.Counter("qsmt_opt_incumbent_improvements_total", "Incumbent replacements across Optimize candidate scans."),
		OptOptimal:      r.Counter("qsmt_opt_optimal_total", "Optimize calls whose incumbent reached the proven lower bound."),
		OptObjective:    r.Gauge("qsmt_opt_objective", "Weighted theory objective of the most recent Optimize result."),
		OptGap:          r.Histogram("qsmt_opt_bound_gap", "Objective minus proven lower bound per successful Optimize call.", obs.DefaultLatencyBuckets),
		OptHardWeight:   r.Gauge("qsmt_opt_hard_weight", "Hard-penalty multiplier M of the most recent Optimize call."),
	}
}

// record mirrors one finished solve (or enumeration) into the registry.
// Safe on a nil receiver.
func (m *SolverMetrics) record(st *SolveStats, err error) {
	if m == nil {
		return
	}
	if err == nil {
		m.Solves.Inc()
	} else {
		m.SolveFailures.Inc()
	}
	m.Attempts.Add(float64(st.Attempts))
	m.Reads.Add(float64(st.Reads))
	m.Candidates.Add(float64(st.Candidates))
	m.VerifyFailures.Add(float64(st.VerifyFailures))
	m.PenaltyViolations.Add(float64(st.PenaltyViolations))
	m.CompileSeconds.Observe(st.Compile.Seconds())
	m.SampleSeconds.Observe(st.Sample.Seconds())
	m.DecodeSeconds.Observe(st.DecodeVerify.Seconds())
	if st.Reads > 0 && st.bestSet {
		// Energy statistics are meaningless before any sampling happened
		// (e.g. a solve cancelled before its first attempt, or a sampler
		// that only ever returned empty sample sets).
		m.GroundFraction.Observe(st.GroundFraction)
		m.BestEnergy.Set(st.BestEnergy)
		m.MeanEnergy.Set(st.MeanEnergy)
	}
	if st.Shards > 0 {
		m.Shards.Add(float64(st.Shards))
		m.ExactShards.Add(float64(st.ExactShards))
	}
	if st.PresolveRounds > 0 {
		m.Presolves.Inc()
		m.PresolveEliminated.Add(float64(st.PresolveEliminated))
		m.PresolveRounds.Add(float64(st.PresolveRounds))
		m.PresolveRatio.Observe(st.PresolveRatio)
		m.PresolveSeconds.Observe(st.Presolve.Seconds())
	}
	if st.WarmSeeded > 0 {
		m.WarmSeeded.Add(float64(st.WarmSeeded))
		m.WarmHits.Add(float64(st.WarmHits))
	}
	if st.ShardFallback {
		m.ShardFallbacks.Inc()
	}
	if st.KernelProposals > 0 {
		m.KernelProposals.Add(float64(st.KernelProposals))
		m.KernelFlips.Add(float64(st.KernelFlips))
		m.KernelResyncs.Add(float64(st.KernelResyncs))
		m.KernelAcceptRate.Observe(float64(st.KernelFlips) / float64(st.KernelProposals))
		if st.KernelPacked {
			m.KernelPackedSolves.Inc()
		}
	}
	if st.SoftTerms > 0 {
		if err == nil {
			m.OptSolves.Inc()
		} else {
			m.OptFailures.Inc()
		}
		m.OptSoftTerms.Add(float64(st.SoftTerms))
		m.OptImprovements.Add(float64(st.ObjectiveImprovements))
		m.OptHardWeight.Set(st.HardWeight)
		if st.objectiveSet {
			m.OptObjective.Set(st.Objective)
			m.OptGap.Observe(st.Objective - st.ObjectiveBound)
			if st.ObjectiveOptimal {
				m.OptOptimal.Inc()
			}
		}
	}
	if st.Incremental {
		m.IncrementalSolves.Inc()
		m.IncrementalComponents.Add(float64(st.Shards))
		m.IncrementalHits.Add(float64(st.IncrementalHits))
		m.IncrementalParentSeeds.Add(float64(st.IncrementalParentSeeds))
		m.IncrementalPresolveReuses.Add(float64(st.IncrementalPresolveReuses))
		if st.Shards > 0 {
			m.IncrementalReuse.Observe(float64(st.IncrementalHits) / float64(st.Shards))
		}
	}
}

// recordBatch mirrors one finished batch call into the registry.
// Safe on a nil receiver.
func (m *SolverMetrics) recordBatch(constraints, failures int, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.BatchConstraints.Add(float64(constraints))
	m.BatchFailures.Add(float64(failures))
	m.BatchSeconds.Observe(elapsed.Seconds())
}

// batchInFlight moves the in-flight batch gauge by d. Safe on a nil
// receiver.
func (m *SolverMetrics) batchInFlight(d float64) {
	if m == nil {
		return
	}
	m.BatchInFlight.Add(d)
}

// syncCache folds a compile-cache snapshot into the registry, advancing
// the cumulative counters by the delta since the previous sync. Safe on
// a nil receiver.
func (m *SolverMetrics) syncCache(cs qubo.CacheStats) {
	if m == nil {
		return
	}
	m.cacheMu.Lock()
	last := m.lastCache
	m.lastCache = cs
	m.cacheMu.Unlock()
	m.CacheHits.Add(float64(cs.Hits - last.Hits))
	m.CacheMisses.Add(float64(cs.Misses - last.Misses))
	m.CacheEvictions.Add(float64(cs.Evictions - last.Evictions))
	m.CacheCoalesced.Add(float64(cs.Coalesced - last.Coalesced))
	m.CacheEntries.Set(float64(cs.Entries))
}

// samplerName renders a sampler's identity for SolveStats: the concrete
// type name without package clutter ("SimulatedAnnealer", "ExactSolver").
func samplerName(s Sampler) string {
	if s == nil {
		return ""
	}
	name := fmt.Sprintf("%T", s)
	name = strings.TrimPrefix(name, "*")
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}
