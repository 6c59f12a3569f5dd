// Package portfolio races competing solver arms on one compiled QUBO
// shard under a single context and cancels the losers the moment a
// winner is decided — the algorithm-portfolio pattern SMT solvers use
// (arlib-style "run every tactic, first definitive answer wins"),
// applied to the shard tiers of the annealing pipeline: exact
// enumeration, greedy descent from baseline propagation, packed
// 64-replica simulated annealing (warm and cold), parallel tempering,
// and the scalar reference kernel.
//
// Two classes of result settle a race:
//
//   - a definitive result — exact enumeration, or any arm whose best
//     sample reaches the shard's proven lower bound — wins immediately
//     and is marked Proven;
//   - otherwise the first *primary* arm to complete wins (advisory arms
//     such as greedy descent can only win by proving the bound; their
//     unproven output is discarded rather than allowed to beat a
//     full-strength sampler to the line with garbage).
//
// Race always waits for every arm goroutine to exit before returning,
// so a settled race leaves no goroutines behind and no PackedKernel
// buffers pinned — cancelled arms unwind through their samplers'
// context checks and their kernels become garbage immediately.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qsmt/internal/anneal"
)

// ArmKind identifies one member of the portfolio's arm set. It indexes
// the fixed-size win-count arrays the solver carries in its stats, so
// the set is closed by design.
type ArmKind int

const (
	// ArmExact enumerates the shard exhaustively (definitive).
	ArmExact ArmKind = iota
	// ArmWarmSA is the adaptive packed annealer seeded with warm starts.
	ArmWarmSA
	// ArmColdSA is the adaptive packed annealer from random starts — the
	// engine the sequential tier path runs, under the read controller.
	ArmColdSA
	// ArmTempering is full-budget parallel tempering (staggered backup).
	ArmTempering
	// ArmScalarSA is the scalar reference annealing kernel (staggered
	// backup; also the differential witness against the packed path).
	ArmScalarSA
	// ArmDescent is greedy descent from baseline-propagation seeds; it is
	// advisory — it can only win a race by proving the lower bound.
	ArmDescent

	// NumArmKinds bounds the arm-kind enum; win-count arrays are indexed
	// [0, NumArmKinds).
	NumArmKinds
)

// KindName renders the metric-label name of an arm kind.
func KindName(k ArmKind) string {
	switch k {
	case ArmExact:
		return "exact"
	case ArmWarmSA:
		return "warm_sa"
	case ArmColdSA:
		return "cold_sa"
	case ArmTempering:
		return "tempering"
	case ArmScalarSA:
		return "scalar_sa"
	case ArmDescent:
		return "descent"
	}
	return fmt.Sprintf("arm(%d)", int(k))
}

// Telemetry is the side channel an arm fills in before returning; the
// race folds it into the Outcome. Each arm owns its struct exclusively
// until its goroutine exits, and Race reads it only after that, so no
// synchronization is needed.
type Telemetry struct {
	// Proven reports that the arm's best sample reached the shard's
	// proven lower bound, so the result is a certified optimum.
	Proven bool
	// EarlyStopped reports that the adaptive read controller cut the
	// arm's budget short (stopping rule fired before the ladder ended).
	EarlyStopped bool
	// ReadsSaved is the unspent sampling budget in read-equivalents:
	// nominal reads × the fraction of the sweep budget the controller
	// did not run.
	ReadsSaved int
}

// Arm is one competitor in a race.
type Arm struct {
	Kind ArmKind
	// Definitive marks arms whose any non-empty result is a certified
	// optimum (exact enumeration): the race settles on it immediately.
	Definitive bool
	// Advisory marks arms that cannot win on completion order alone —
	// only by proving the bound (greedy descent). Their unproven results
	// are recorded but never returned.
	Advisory bool
	// Delay staggers the arm's launch; if the race settles first the arm
	// is never started (its timer is stopped). Backup arms (tempering,
	// scalar) use it so a healthy race costs ~0 extra CPU.
	Delay time.Duration
	// Run executes the arm under ctx. It must honor cancellation
	// promptly (all module samplers check ctx between sweeps) and may
	// fill telemetry before returning.
	Run func(ctx context.Context, t *Telemetry) (*anneal.SampleSet, error)
}

// ArmStatus classifies how one arm's run ended.
type ArmStatus int

const (
	// ArmWon: this arm's result was returned.
	ArmWon ArmStatus = iota
	// ArmCompleted: finished with samples but lost the race.
	ArmCompleted
	// ArmCanceled: cancelled as a loser (or by the parent context).
	ArmCanceled
	// ArmFailed: returned an error other than cancellation, or an empty
	// sample set.
	ArmFailed
)

// String renders the status for logs and test failures.
func (s ArmStatus) String() string {
	switch s {
	case ArmWon:
		return "won"
	case ArmCompleted:
		return "completed"
	case ArmCanceled:
		return "canceled"
	case ArmFailed:
		return "failed"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// ArmReport is the per-arm postmortem of a race.
type ArmReport struct {
	Kind    ArmKind
	Status  ArmStatus
	Elapsed time.Duration
	Err     error
	Telemetry

	// set holds the arm's sample set so the winner's can be returned
	// after the drain; losers' sets become garbage with the report.
	set *anneal.SampleSet
}

// Outcome is the result of one race.
type Outcome struct {
	// Set is the winning arm's sample set.
	Set *anneal.SampleSet
	// Winner is the arm that produced Set.
	Winner ArmKind
	// Proven reports the winner's result is a certified optimum
	// (definitive arm, or bound reached).
	Proven bool
	// Canceled counts losing arms cut off mid-run.
	Canceled int
	// EarlyStopped reports the winner's read controller stopped early.
	EarlyStopped bool
	// ReadsSaved is the winner's unspent budget in read-equivalents.
	ReadsSaved int
	// Arms holds one report per arm, in input order.
	Arms []ArmReport
	// Elapsed is the wall-clock of the whole race (including the wait
	// for cancelled losers to unwind).
	Elapsed time.Duration
}

// ErrNoArms reports a race invoked with an empty arm set.
var ErrNoArms = errors.New("portfolio: no arms to race")

type armResult struct {
	idx     int
	set     *anneal.SampleSet
	err     error
	elapsed time.Duration
}

// Race runs every arm concurrently under a context derived from ctx and
// returns the winner's sample set. The first definitive (or proven)
// finisher settles the race instantly; failing that, the first
// completed primary arm wins; an advisory result is returned only when
// nothing else produced samples. Losing arms are cancelled and Race
// blocks until all of them have exited — the teardown contract the
// goroutine-leak test pins.
func Race(ctx context.Context, arms []Arm) (*Outcome, error) {
	if len(arms) == 0 {
		return nil, ErrNoArms
	}
	start := time.Now()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	telemetry := make([]Telemetry, len(arms))
	results := make(chan armResult, len(arms))
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		a := &arms[i]
		if err := rctx.Err(); err != nil && a.Delay > 0 {
			// A delayed arm whose timer fired as the race settled.
			results <- armResult{idx: i, err: err, elapsed: time.Since(start)}
			return
		}
		set, err := a.Run(rctx, &telemetry[i])
		if err == nil && set != nil && set.Len() > 0 && (a.Definitive || telemetry[i].Proven || !a.Advisory) {
			// A settling result cancels the losers at once rather than
			// when the collector below is next scheduled; the collector
			// still picks the winner.
			cancel()
		}
		results <- armResult{idx: i, set: set, err: err, elapsed: time.Since(start)}
	}
	// A delayed arm is started by a timer, so an arm the race settles
	// without never costs a goroutine. Stopped timers are reported as
	// cancelled by the collector below.
	var timers []*time.Timer
	for i := range arms {
		wg.Add(1)
		if d := arms[i].Delay; d > 0 {
			if timers == nil {
				timers = make([]*time.Timer, len(arms))
			}
			timers[i] = time.AfterFunc(d, func() { run(i) })
			continue
		}
		go run(i)
	}
	var stop <-chan struct{}
	if timers != nil {
		stop = rctx.Done()
	}

	// Collect every arm's result; the first settling result cancels the
	// rest, but the drain continues so wg.Wait below cannot block.
	reports := make([]ArmReport, len(arms))
	settled := false
	firstDefinitive, firstPrimary, firstAdvisory := -1, -1, -1
	for received := 0; received < len(arms); {
		var r armResult
		select {
		case r = <-results:
		case <-stop:
			// Settled or cancelled: arms still waiting on their timers
			// never start.
			stop = nil
			for i, t := range timers {
				if t != nil && t.Stop() {
					wg.Done()
					results <- armResult{idx: i, err: rctx.Err(), elapsed: time.Since(start)}
				}
			}
			continue
		}
		received++
		a := &arms[r.idx]
		rep := ArmReport{Kind: a.Kind, Elapsed: r.elapsed, Err: r.err}
		switch {
		case r.err != nil:
			if errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded) {
				rep.Status = ArmCanceled
			} else {
				rep.Status = ArmFailed
			}
		case r.set == nil || r.set.Len() == 0:
			rep.Status = ArmFailed
			rep.Err = fmt.Errorf("portfolio: %s arm returned no samples", KindName(a.Kind))
		default:
			rep.Status = ArmCompleted
			rep.set = r.set
			if (a.Definitive || telemetry[r.idx].Proven) && firstDefinitive < 0 {
				firstDefinitive = r.idx
				if !settled {
					settled = true
					cancel()
				}
			} else if a.Advisory {
				if firstAdvisory < 0 {
					firstAdvisory = r.idx
				}
			} else if firstPrimary < 0 {
				firstPrimary = r.idx
				if !settled {
					settled = true
					cancel()
				}
			}
		}
		reports[r.idx] = rep
	}
	wg.Wait()

	// Resolve the winner with static priority: a certified optimum beats
	// a primary completion beats an advisory fallback. Within a class
	// "first arrival" won above; arrival order is scheduler-dependent,
	// which is why portfolio mode trades run-to-run bit determinism for
	// latency (verdicts are preserved — see the differential suite).
	winIdx := firstDefinitive
	if winIdx < 0 {
		winIdx = firstPrimary
	}
	if winIdx < 0 {
		winIdx = firstAdvisory
	}
	if winIdx < 0 {
		// Nothing produced samples. Prefer the parent context's error (the
		// caller was cancelled) over per-arm failures.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		errs := make([]error, 0, len(arms))
		for i := range reports {
			if reports[i].Err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", KindName(arms[i].Kind), reports[i].Err))
			}
		}
		return nil, fmt.Errorf("portfolio: every arm failed: %w", errors.Join(errs...))
	}

	out := &Outcome{
		Set:          reports[winIdx].set,
		Winner:       arms[winIdx].Kind,
		Proven:       arms[winIdx].Definitive || telemetry[winIdx].Proven,
		EarlyStopped: telemetry[winIdx].EarlyStopped,
		ReadsSaved:   telemetry[winIdx].ReadsSaved,
		Elapsed:      time.Since(start),
	}
	reports[winIdx].Status = ArmWon
	for i := range reports {
		reports[i].Telemetry = telemetry[i]
		if reports[i].Status == ArmCanceled {
			out.Canceled++
		}
	}
	out.Arms = reports
	return out, nil
}
