package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"qsmt/internal/portfolio"
)

// flatten reads the program's own counters into one map: Result.Stats
// aggregates via the qsmt_* registry (Options.Metrics), the compile
// cache's CacheStats, the annealerd_* registry (ServerMetrics) and the
// remote client's retry count, plus the Go runtime's.
func flatten(c counters) map[string]float64 {
	v := map[string]float64{}
	if m := c.solver; m != nil {
		v["solves"] = m.Solves.Value()
		v["failures"] = m.SolveFailures.Value()
		v["attempts"] = m.Attempts.Value()
		v["reads"] = m.Reads.Value()
		v["candidates"] = m.Candidates.Value()
		v["phase_s"] = m.CompileSeconds.Sum() + m.PresolveSeconds.Sum() + m.SampleSeconds.Sum() + m.DecodeSeconds.Sum()
		v["shards"] = m.Shards.Value()
		v["exact_shards"] = m.ExactShards.Value()
		v["fallbacks"] = m.ShardFallbacks.Value()
		v["batch_constraints"] = m.BatchConstraints.Value()
		v["warm_seeded"] = m.WarmSeeded.Value()
		v["warm_hits"] = m.WarmHits.Value()
		v["incr_components"] = m.IncrementalComponents.Value()
		v["incr_hits"] = m.IncrementalHits.Value()
		v["races"] = m.PortfolioRaces.Value()
		v["exact_wins"] = m.PortfolioArmWins.With(portfolio.KindName(portfolio.ArmExact)).Value()
		v["cancelled"] = m.PortfolioCancels.Value()
		v["reads_saved"] = m.PortfolioReadsSaved.Value()
		v["proposals"] = m.KernelProposals.Value()
		v["flips"] = m.KernelFlips.Value()
		v["ground_sum"] = m.GroundFraction.Sum()
		v["ground_n"] = float64(m.GroundFraction.Count())
	}
	if cs := c.cache; cs != nil {
		v["cache_hits"] = float64(cs.Hits)
		v["cache_misses"] = float64(cs.Misses)
		v["cache_coalesced"] = float64(cs.Coalesced)
	}
	if m := c.server; m != nil {
		v["job_wait_s"] = m.JobWaitSeconds.Sum()
		v["job_wait_n"] = float64(m.JobWaitSeconds.Count())
		v["job_run_s"] = m.JobRunSeconds.Sum()
		v["job_run_n"] = float64(m.JobRunSeconds.Count())
		v["cas_hits"] = m.CASHits.Value()
		v["cas_misses"] = m.CASMisses.Value()
		v["shed"] = m.JobsShed.Value()
		v["submitted"] = m.JobsSubmitted.With("interactive").Value()
	}
	v["client_retries"] = float64(c.retries)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["alloc_bytes"] = float64(ms.TotalAlloc)
	v["gc_cycles"] = float64(ms.NumGC)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		v["gc_cpu_s"] = samples[0].Value.Float64()
		v["cpu_s"] = samples[1].Value.Float64()
	}
	return v
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass is everything one traced pass measured.
type tracedPass struct {
	ops            int
	calls, retried int
	okCalls        int
	selfNanos      int64
	opMs           float64            // Σ real end-to-end call latencies
	before, after  map[string]float64 // program counters around the pass
	replay         replayAcc          // what the stage replay observed
	spans          map[string]time.Duration
	untracedMeanMs float64
	tracedMeanMs   float64
}

// layerMetrics derives every per-layer metric. A layer that does not
// run on a workload reports 0.
func layerMetrics(p tracedPass) map[string]float64 {
	d := func(k string) float64 { return p.after[k] - p.before[k] }
	ops := float64(p.ops)
	perOp := func(names ...string) float64 {
		var t time.Duration
		for _, n := range names {
			t += p.spans[n]
		}
		return ratio(float64(t)/1e6, ops)
	}
	solverCalls := d("solves") + d("failures")
	parse := p.spans["smtlib.ParseScript"]
	out := map[string]float64{
		"smtlib.parse_ms":   perOp("smtlib.ParseScript"),
		"smtlib.compile_ms": perOp("smtlib.Compile"),
		"smtlib.memo_hit_frac": func() float64 {
			if parse == 0 {
				return 0
			}
			return 1 - ratio(solverCalls, ops)
		}(),
		"smtlib.self_ms": func() float64 {
			if parse == 0 {
				return 0
			}
			return ratio(p.opMs-d("phase_s")*1e3, ops)
		}(),

		"core.build_ms":    perOp("core.BuildModel"),
		"core.vars_per_op": ratio(float64(p.replay.vars), ops),
		"core.check_ms":    perOp("core.Decode", "core.Check"),
		"core.accept_frac": ratio(d("solves"), d("candidates")),

		"qubo.presolve_ms":        perOp("qubo.Presolve"),
		"qubo.presolve_elim_frac": ratio(float64(p.replay.presolveElim), float64(p.replay.presolveFull)),
		"qubo.components_ms":      perOp("qubo.Components"),
		"qubo.compile_ms":         perOp("qubo.Compile", "qubo.Cache.Compile"),
		"qubo.cache_hit_frac":     ratio(d("cache_hits"), d("cache_hits")+d("cache_misses")),
		"qubo.cache_coalesced":    d("cache_coalesced"),
		"qubo.exact_shard_frac":   ratio(d("exact_shards"), d("shards")),
		"qubo.fallback_frac":      ratio(d("fallbacks"), d("batch_constraints")),

		"qsmt.attempts_per_op":         ratio(d("attempts"), ops),
		"qsmt.retry_frac":              ratio(float64(p.retried), float64(p.calls)),
		"qsmt.self_ms":                 ratio(float64(p.selfNanos)/1e6, float64(p.okCalls)),
		"qsmt.warm_hit_frac":           ratio(d("warm_hits"), d("warm_seeded")),
		"qsmt.incr_component_hit_frac": ratio(d("incr_hits"), d("incr_components")),

		"portfolio.races_per_op":         ratio(d("races"), ops),
		"portfolio.race_ms":              perOp("portfolio.Race"),
		"portfolio.exact_win_frac":       ratio(d("exact_wins"), d("races")),
		"portfolio.cancelled_per_race":   ratio(d("cancelled"), d("races")),
		"portfolio.reads_saved_per_race": ratio(d("reads_saved"), d("races")),

		"anneal.sample_ms":        perOp("anneal.SimulatedAnnealer", "anneal.ExactSolver"),
		"anneal.reads_per_op":     ratio(d("reads"), ops),
		"anneal.proposals_per_op": ratio(d("proposals"), ops),
		"anneal.ns_per_proposal":  ratio(float64(p.replay.saNanos), float64(p.replay.proposals)),
		"anneal.flip_frac":        ratio(d("flips"), d("proposals")),
		"anneal.ground_frac":      ratio(d("ground_sum"), d("ground_n")),

		"remote.upload_ms":      perOp("remote.Client.UploadModel"),
		"remote.submit_ms":      perOp("remote.Client.SubmitJob"),
		"remote.wait_ms":        perOp("remote.Client.WaitJob"),
		"remote.queue_wait_ms":  1e3 * ratio(d("job_wait_s"), d("job_wait_n")),
		"remote.run_ms":         1e3 * ratio(d("job_run_s"), d("job_run_n")),
		"remote.cas_hit_frac":   ratio(d("cas_hits"), d("cas_hits")+d("cas_misses")),
		"remote.shed_frac":      ratio(d("shed"), d("shed")+d("submitted")),
		"remote.retries_per_op": ratio(d("client_retries"), ops),

		"runtime.alloc_kb_per_op": ratio(d("alloc_bytes")/1024, ops),
		"runtime.gc_per_kop":      ratio(1000*d("gc_cycles"), ops),
		"runtime.gc_cpu_frac":     ratio(d("gc_cpu_s"), d("cpu_s")),

		"trace.overhead_ms": p.tracedMeanMs - p.untracedMeanMs,
	}
	return out
}
