package qsmt

// Differential acceptance suite for the portfolio scheduler: racing
// arms with adaptive early stopping must change latency only, never
// verdicts. Portfolio-on and portfolio-off solvers run the same
// constraints at the same seed; verdicts, witness validity, and ground
// energies must agree, on the Table 1 rows and on randomized inputs.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
	"qsmt/internal/strtheory"
)

// inertSampler satisfies Sampler without doing anything; it only marks
// "the caller supplied an explicit sampler" for the engagement tests.
type inertSampler struct{}

func (inertSampler) Sample(*qubo.Compiled) (*anneal.SampleSet, error) {
	return anneal.Aggregate(nil), nil
}

func TestPortfolioDifferentialTable1(t *testing.T) {
	for _, c := range table1Constraints() {
		on := NewSolver(&Options{Seed: 5, Portfolio: On})
		off := NewSolver(&Options{Seed: 5, Portfolio: Off})
		ron, err := on.Solve(c)
		if err != nil {
			t.Fatalf("%s: portfolio-on solve: %v", c.Name(), err)
		}
		roff, err := off.Solve(c)
		if err != nil {
			t.Fatalf("%s: portfolio-off solve: %v", c.Name(), err)
		}
		if diff := ron.Energy - roff.Energy; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: portfolio-on energy %g != portfolio-off energy %g",
				c.Name(), ron.Energy, roff.Energy)
		}
		if err := c.Check(ron.Witness); err != nil {
			t.Errorf("%s: portfolio witness fails re-check: %v", c.Name(), err)
		}
	}
}

// Randomized Includes instances, both satisfiable and not: the
// portfolio solver's verdict must track the reference semantics
// exactly, and must coincide with the sequential solver's verdict on
// every instance. This is the early-stop safety property — stopping an
// annealer arm short of its read budget may cost candidates, but the
// decode→check→retry loop means it can never flip sat to unsat or
// admit an invalid witness.
func TestPortfolioDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	on := NewSolver(&Options{Seed: 53, Portfolio: On})
	off := NewSolver(&Options{Seed: 53, Portfolio: Off})
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ab"[rng.Intn(2)]
		}
		return string(b)
	}
	for trial := 0; trial < 40; trial++ {
		hay := randStr(rng.Intn(6))
		needle := randStr(rng.Intn(3))
		c := Includes(hay, needle)
		want := strtheory.IndexOf(hay, needle, 0)

		ron, erron := on.Solve(c)
		roff, erroff := off.Solve(c)
		if (erron == nil) != (erroff == nil) {
			t.Errorf("Includes(%q, %q): verdicts diverge: portfolio err=%v, sequential err=%v",
				hay, needle, erron, erroff)
			continue
		}
		if want < 0 {
			if erron == nil {
				t.Errorf("Includes(%q, %q): portfolio solved with index %d, reference says unsat",
					hay, needle, ron.Witness.Index)
			} else if !errors.Is(erron, ErrUnsatisfiable) && !errors.Is(erron, ErrNoModel) {
				t.Errorf("Includes(%q, %q): unexpected portfolio error %v", hay, needle, erron)
			}
			continue
		}
		if erron != nil {
			t.Errorf("Includes(%q, %q): portfolio failed: %v (reference index %d)",
				hay, needle, erron, want)
			continue
		}
		if ron.Witness.Index != want || roff.Witness.Index != want {
			t.Errorf("Includes(%q, %q): indexes diverge: portfolio %d, sequential %d, reference %d",
				hay, needle, ron.Witness.Index, roff.Witness.Index, want)
		}
	}
}

// The default (tri-state unset) races shards; an explicit Sampler must
// suppress racing even when Portfolio is forced On, because an explicit
// sampler is a contract.
func TestPortfolioEngagementRules(t *testing.T) {
	var def Options
	s := NewSolver(&def)
	if !s.portfolioShards() {
		t.Error("default options: shard racing should be on")
	}
	s = NewSolver(&Options{Portfolio: Off})
	if s.portfolioShards() {
		t.Error("Portfolio: Off still races shards")
	}
	s = NewSolver(&Options{Portfolio: On, Sampler: inertSampler{}})
	if s.portfolioShards() {
		t.Error("explicit Sampler must suppress racing even when forced On")
	}
}

// Portfolio races must surface in SolveStats and in the Prometheus
// exposition. ExactShardVars is disabled so every shard goes through a
// race rather than the exact-shard shortcut.
func TestPortfolioStatsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSolver(&Options{
		Seed:           9,
		Portfolio:      On,
		ExactShardVars: -1,
		Metrics:        NewSolverMetrics(reg),
	})
	res, err := s.Solve(AvoidChars([]byte("t"), 3))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	st := res.Stats
	if st.PortfolioRaces == 0 {
		t.Fatal("Stats.PortfolioRaces = 0, want > 0 with every shard racing")
	}
	wins := 0
	for _, w := range st.PortfolioArmWins {
		wins += w
	}
	if wins != st.PortfolioRaces {
		t.Errorf("arm wins %d != races %d — every race must have a winner", wins, st.PortfolioRaces)
	}
	if st.Sampler != "portfolio" {
		t.Errorf("Stats.Sampler = %q, want portfolio", st.Sampler)
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		"qsmt_portfolio_races_total",
		"qsmt_portfolio_arm_wins_total",
		"qsmt_portfolio_cancelled_arms_total",
		"qsmt_portfolio_early_stops_total",
		"qsmt_portfolio_reads_saved_total",
		"qsmt_portfolio_proven_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(text, `qsmt_portfolio_races_total `+itoa(st.PortfolioRaces)) {
		t.Errorf("exposition races counter does not match stats %d:\n%s",
			st.PortfolioRaces, grepLines(text, "qsmt_portfolio_races_total"))
	}
}

// SolveBatch with the portfolio default must agree with the sequential
// batch on every verdict.
func TestPortfolioBatchDifferential(t *testing.T) {
	cs := []Constraint{
		Equality("hi"),
		Reverse("abc"),
		Includes("abcabc", "bc"),
		Concat("ab", "cd"),
		Includes("ab", "abc"), // unsat
	}
	on := NewSolver(&Options{Seed: 17, Portfolio: On})
	off := NewSolver(&Options{Seed: 17, Portfolio: Off})
	ron, err := on.SolveBatch(context.Background(), cs)
	if err != nil {
		t.Fatalf("portfolio batch: %v", err)
	}
	roff, err := off.SolveBatch(context.Background(), cs)
	if err != nil {
		t.Fatalf("sequential batch: %v", err)
	}
	for i := range cs {
		sat1, sat2 := ron.Items[i].Err == nil, roff.Items[i].Err == nil
		if sat1 != sat2 {
			t.Errorf("%s: batch verdicts diverge: portfolio err=%v, sequential err=%v",
				cs[i].Name(), ron.Items[i].Err, roff.Items[i].Err)
		}
		if sat1 {
			if err := cs[i].Check(ron.Items[i].Result.Witness); err != nil {
				t.Errorf("%s: portfolio batch witness fails re-check: %v", cs[i].Name(), err)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
