package main

import (
	"context"
	"time"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/portfolio"
	"qsmt/internal/qubo"
)

// The stage replay runs an op's input once more through the exported
// layer calls in pipeline order, one span per call, each parented to the
// span of the op's real end-to-end call:
//
//	BuildModel → qubo.Presolve → qubo.Components → Compile (or
//	Cache.Compile) → ExactSolver / SimulatedAnnealer / portfolio.Race →
//	Decode → Check
//
// It runs only in traced runs, after the real call, so untraced runs
// time the program alone.

// replayAcc accumulates the counts the replay observes.
type replayAcc struct {
	vars, presolveFull, presolveElim int
	proposals                        int64
	saNanos                          int64
}

// replayer holds what the replay needs besides the tracer.
type replayer struct {
	tr      *tracer
	acc     replayAcc
	sharded bool        // decompose into components like SolveBatch
	cache   *qubo.Cache // nil compiles directly
	seed    int64
}

// constraint replays one constraint's pipeline.
func (r *replayer) constraint(opID int, parent int64, c qsmt.Constraint) {
	tr := r.tr
	var model *qubo.Model
	var err error
	tr.time("core.BuildModel", opID, parent, func() { model, err = c.BuildModel() })
	if err != nil {
		return
	}
	r.acc.vars += model.N()
	var red *qubo.Reduction
	tr.time("qubo.Presolve", opID, parent, func() { red = qubo.Presolve(model) })
	r.acc.presolveFull += red.FullN
	r.acc.presolveElim += red.Eliminated()
	work := model
	if red.Reduced() {
		work = red.Model
	}
	var shards []qubo.Shard
	tr.time("qubo.Components", opID, parent, func() { shards = qubo.Components(work) })

	x := make([]qubo.Bit, work.N())
	if r.sharded && len(shards) > 1 {
		for i := range shards {
			best := r.solvePart(opID, parent, shards[i].Model, i)
			shards[i].Scatter(x, best)
		}
	} else if work.N() > 0 {
		copy(x, r.solvePart(opID, parent, work, 0))
	}
	if red.Reduced() {
		x = red.Lift(x)
	}
	var w qsmt.Witness
	tr.time("core.Decode", opID, parent, func() { w, err = c.Decode(x) })
	if err == nil {
		tr.time("core.Check", opID, parent, func() { _ = c.Check(w) })
	}
}

// solvePart compiles and minimizes one (sub)model and returns its best
// assignment. Sharded replays mirror the solver's shard tiers: coupler-
// free shards in closed form, small shards exactly, the rest raced.
func (r *replayer) solvePart(opID int, parent int64, m *qubo.Model, part int) []qubo.Bit {
	tr := r.tr
	var c *qubo.Compiled
	if r.cache != nil {
		tr.time("qubo.Cache.Compile", opID, parent, func() { c, _ = r.cache.Compile(m) })
	} else {
		tr.time("qubo.Compile", opID, parent, func() { c = m.Compile() })
	}
	if r.sharded && m.NumQuadratic() == 0 {
		x := make([]qubo.Bit, m.N())
		for i := range x {
			if m.Linear(i) < 0 {
				x[i] = 1
			}
		}
		return x
	}
	seed := r.seed + int64(part)*7_368_787
	var ss *anneal.SampleSet
	var err error
	switch {
	case r.sharded && m.N() <= qsmt.DefaultExactShardVars:
		tr.time("anneal.ExactSolver", opID, parent, func() {
			ss, err = (&anneal.ExactSolver{MaxStates: 16}).Sample(c)
		})
	case r.sharded:
		tr.time("portfolio.Race", opID, parent, func() {
			arms, _ := portfolio.BuildArms(portfolio.Config{Compiled: c, Reads: 64, Sweeps: 1000, Seed: seed, Candidates: 16})
			var o *portfolio.Outcome
			if o, err = portfolio.Race(context.Background(), arms); err == nil {
				ss = o.Set
			}
		})
	default:
		sa := &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000, Seed: seed}
		start := time.Now()
		ss, err = sa.Sample(c)
		end := time.Now()
		tr.record("anneal.SimulatedAnnealer", opID, parent, start, end)
		if err == nil {
			r.acc.proposals += ss.Kernel.Proposals
			r.acc.saNanos += end.Sub(start).Nanoseconds()
		}
	}
	if err != nil || ss == nil || len(ss.Samples) == 0 {
		return make([]qubo.Bit, m.N())
	}
	return ss.Best().X
}
