package qsmt

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
)

// rejectFirstChecks wraps a constraint and fails the first N Check calls,
// forcing the solver through its verify-retry machinery.
type rejectFirstChecks struct {
	Constraint
	remaining int
}

func (r *rejectFirstChecks) Check(w Witness) error {
	if r.remaining > 0 {
		r.remaining--
		return fmt.Errorf("stats test: synthetic verify failure (%d left)", r.remaining)
	}
	return r.Constraint.Check(w)
}

func TestResultStatsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	// Presolve off: it solves Equality outright, and this test asserts
	// the stats of a full annealing attempt (64 reads), which the
	// explicit sampler keeps (the default Solve solves the coupler-free
	// components closed-form).
	s := NewSolver(&Options{Metrics: NewSolverMetrics(reg), Presolve: Off, Sampler: &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000}})
	res, err := s.Solve(Equality("hi"))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	st := res.Stats
	if st.Sampler != "SimulatedAnnealer" {
		t.Errorf("Stats.Sampler = %q, want SimulatedAnnealer", st.Sampler)
	}
	if st.Attempts != res.Attempts {
		t.Errorf("Stats.Attempts = %d, Result.Attempts = %d", st.Attempts, res.Attempts)
	}
	if st.Reads < 64 {
		t.Errorf("Stats.Reads = %d, want >= 64 (one full attempt)", st.Reads)
	}
	if st.Candidates <= 0 {
		t.Errorf("Stats.Candidates = %d, want > 0", st.Candidates)
	}
	if st.GroundFraction <= 0 || st.GroundFraction > 1 {
		t.Errorf("Stats.GroundFraction = %g, want in (0, 1]", st.GroundFraction)
	}
	if st.BestEnergy > st.MeanEnergy {
		t.Errorf("BestEnergy %g > MeanEnergy %g", st.BestEnergy, st.MeanEnergy)
	}
	if st.Compile <= 0 || st.Sample <= 0 || st.DecodeVerify <= 0 {
		t.Errorf("phase timings not all positive: compile=%v sample=%v decode=%v",
			st.Compile, st.Sample, st.DecodeVerify)
	}
	total := st.Compile + st.Sample + st.DecodeVerify
	if total > res.Elapsed {
		t.Errorf("phase timings %v exceed Elapsed %v", total, res.Elapsed)
	}

	m := s.opts.Metrics
	if got := m.Solves.Value(); got != 1 {
		t.Errorf("qsmt_solves_total = %g, want 1", got)
	}
	if got := m.Attempts.Value(); got != float64(st.Attempts) {
		t.Errorf("qsmt_solve_attempts_total = %g, want %d", got, st.Attempts)
	}
	if got := m.Reads.Value(); got != float64(st.Reads) {
		t.Errorf("qsmt_solve_reads_total = %g, want %d", got, st.Reads)
	}
	if got := m.SampleSeconds.Count(); got != 1 {
		t.Errorf("qsmt_sample_seconds count = %d, want 1", got)
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		"qsmt_solves_total 1",
		"# TYPE qsmt_sample_seconds histogram",
		"qsmt_ground_fraction_count 1",
		"qsmt_best_energy",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestSolveStatsCountsVerifyFailures(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSolver(&Options{Metrics: NewSolverMetrics(reg)})
	res, err := s.Solve(&rejectFirstChecks{Constraint: Equality("ok"), remaining: 2})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Stats.VerifyFailures < 2 {
		t.Errorf("Stats.VerifyFailures = %d, want >= 2", res.Stats.VerifyFailures)
	}
	if got := s.opts.Metrics.VerifyFailures.Value(); got < 2 {
		t.Errorf("qsmt_verify_failures_total = %g, want >= 2", got)
	}
}

func TestSolveFailureRecordsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSolver(&Options{
		Metrics:     NewSolverMetrics(reg),
		MaxAttempts: 1,
	})
	// Every Check fails, so the solve exhausts its budget.
	_, err := s.Solve(&rejectFirstChecks{Constraint: Equality("x"), remaining: 1 << 30})
	if !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
	m := s.opts.Metrics
	if got := m.SolveFailures.Value(); got != 1 {
		t.Errorf("qsmt_solve_failures_total = %g, want 1", got)
	}
	if got := m.Solves.Value(); got != 0 {
		t.Errorf("qsmt_solves_total = %g, want 0", got)
	}
	if got := m.VerifyFailures.Value(); got <= 0 {
		t.Errorf("qsmt_verify_failures_total = %g, want > 0", got)
	}
}

func TestSolverNilMetricsIsFine(t *testing.T) {
	s := NewSolver(nil)
	res, err := s.Solve(Equality("a"))
	if err != nil {
		t.Fatalf("Solve without metrics: %v", err)
	}
	if res.Stats.Attempts == 0 || res.Stats.Reads == 0 {
		t.Errorf("Stats should populate without Metrics: %+v", res.Stats)
	}
}

func TestEnumerateRecordsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSolver(&Options{Metrics: NewSolverMetrics(reg)})
	ws, err := s.Enumerate(Palindrome(3), 2)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(ws) == 0 {
		t.Fatal("Enumerate returned no witnesses")
	}
	m := s.opts.Metrics
	if got := m.Solves.Value(); got != 1 {
		t.Errorf("qsmt_solves_total = %g, want 1", got)
	}
	if got := m.Reads.Value(); got <= 0 {
		t.Errorf("qsmt_solve_reads_total = %g, want > 0", got)
	}
}

func TestPipelineResultElapsed(t *testing.T) {
	s := NewSolver(nil)
	res, err := s.Run(NewPipeline(Equality("ab")).Reverse())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Elapsed <= 0 {
		t.Errorf("PipelineResult.Elapsed = %v, want > 0", res.Elapsed)
	}
	want := 0
	for _, st := range res.Stages {
		want += st.Result.Attempts
	}
	if res.Attempts != want {
		t.Errorf("PipelineResult.Attempts = %d, want %d (sum of stages)", res.Attempts, want)
	}
}

// TestSolveStatsKernelCounters pins the substrate kernel surface of
// SolveStats and the qsmt_kernel_* metric family: a whole-model SA
// solve runs on the bit-parallel packed kernel and reports its
// lane-level work; a scalar-forced solve reports comparable work with
// KernelPacked false.
func TestSolveStatsKernelCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSolver(&Options{Metrics: NewSolverMetrics(reg), Presolve: Off, Sampler: &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000}})
	res, err := s.Solve(Equality("hi"))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	st := res.Stats
	if st.KernelProposals <= 0 {
		t.Fatalf("KernelProposals = %d, want > 0", st.KernelProposals)
	}
	if st.KernelFlips <= 0 || st.KernelFlips > st.KernelProposals {
		t.Errorf("KernelFlips = %d, want in (0, %d]", st.KernelFlips, st.KernelProposals)
	}
	if !st.KernelPacked {
		t.Error("KernelPacked = false, want true for the default sampler")
	}

	m := s.opts.Metrics
	if got := m.KernelProposals.Value(); got != float64(st.KernelProposals) {
		t.Errorf("qsmt_kernel_lane_proposals_total = %g, want %d", got, st.KernelProposals)
	}
	if got := m.KernelFlips.Value(); got != float64(st.KernelFlips) {
		t.Errorf("qsmt_kernel_lane_flips_total = %g, want %d", got, st.KernelFlips)
	}
	if got := m.KernelPackedSolves.Value(); got != 1 {
		t.Errorf("qsmt_kernel_packed_solves_total = %g, want 1", got)
	}
	if got := m.KernelAcceptRate.Count(); got != 1 {
		t.Errorf("qsmt_kernel_accept_rate count = %d, want 1", got)
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		"qsmt_kernel_lane_proposals_total",
		"qsmt_kernel_lane_flips_total",
		"qsmt_kernel_resyncs_total",
		"qsmt_kernel_packed_solves_total 1",
		"# TYPE qsmt_kernel_accept_rate histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The scalar reference path reports the same surface, minus Packed.
	scalar := NewSolver(&Options{Presolve: Off, Sampler: &anneal.SimulatedAnnealer{Scalar: true}})
	sres, err := scalar.Solve(Equality("hi"))
	if err != nil {
		t.Fatalf("scalar Solve: %v", err)
	}
	if sres.Stats.KernelProposals <= 0 {
		t.Errorf("scalar KernelProposals = %d, want > 0", sres.Stats.KernelProposals)
	}
	if sres.Stats.KernelPacked {
		t.Error("scalar solve reported KernelPacked = true")
	}
}
