package qsmt_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/obs"
)

// The search-loop golden test pins what every entry point returns on a
// fixed corpus under the two solver configurations (default and custom
// sampler): the verdict, the witness, the QUBO energy, and the work
// counters (attempts, shards, candidates, reads). The values in
// testdata/search_golden.txt were generated by the per-entry-point
// retry loops that the shared search loop replaced, so any behaviour
// drift of the refactor shows up here line by line. Since then only
// counters have changed, on the lines whose model moved to a cheaper
// tier. The "batch" lines solve each corpus entry as a one-member
// SolveBatch, which runs the tier plan with the custom sampler.

// goldenConfigs are the option sets of the golden test. Every solve is
// deterministic for its seed, the default configuration included: the
// tiers are a static rule, and concurrently sampled shards share no
// sampler state.
func goldenConfigs() []struct {
	name string
	opts func(m *qsmt.SolverMetrics) *qsmt.Options
} {
	sa := func() *anneal.SimulatedAnnealer { return &anneal.SimulatedAnnealer{Reads: 32, Sweeps: 500, Seed: 11} }
	return []struct {
		name string
		opts func(m *qsmt.SolverMetrics) *qsmt.Options
	}{
		{"default", func(m *qsmt.SolverMetrics) *qsmt.Options {
			return &qsmt.Options{Seed: 7, Metrics: m}
		}},
		{"custom-sa", func(m *qsmt.SolverMetrics) *qsmt.Options {
			return &qsmt.Options{Seed: 7, Sampler: sa(), Metrics: m}
		}},
	}
}

// goldenFamilies is the corpus: one small instance of each family,
// including a conjunction that is unsatisfiable.
func goldenFamilies() []qsmt.Constraint {
	return []qsmt.Constraint{
		qsmt.Palindrome(4),
		qsmt.IndexOf("ab", 1, 4),
		qsmt.Regex("a[bc]+", 4),
		qsmt.PrefixOf("ab", 4),
		qsmt.And(qsmt.Periodic(2, 4), qsmt.Palindrome(4)),
		qsmt.AvoidChars([]byte("t"), 3),
		qsmt.Includes("hello", "ll"),
		qsmt.Equality("hi"),
		qsmt.And(qsmt.CharAt('a', 0, 3), qsmt.CharAt('b', 0, 3)),
	}
}

// counters is a snapshot of the work counters a solve records.
type counters struct{ attempts, candidates, reads, shards float64 }

func snapshot(m *qsmt.SolverMetrics) counters {
	return counters{m.Attempts.Value(), m.Candidates.Value(), m.Reads.Value(), m.Shards.Value()}
}

func (c counters) since(prev counters) counters {
	return counters{c.attempts - prev.attempts, c.candidates - prev.candidates, c.reads - prev.reads, c.shards - prev.shards}
}

func witnessText(w qsmt.Witness) string {
	if w.Kind == qsmt.WitnessIndex {
		return fmt.Sprintf("#%d", w.Index)
	}
	return fmt.Sprintf("%q", w.Str)
}

// resultLine renders one solve outcome; on failure the shard count
// comes from the metrics (a failed solve returns no Result).
func resultLine(res *qsmt.Result, err error, c counters) string {
	if err != nil {
		return fmt.Sprintf("%s attempts=%.0f shards=%.0f candidates=%.0f reads=%.0f",
			verdictClass(err), c.attempts, c.shards, c.candidates, c.reads)
	}
	line := fmt.Sprintf("sat %s energy=%.6f attempts=%d shards=%d candidates=%.0f reads=%.0f",
		witnessText(res.Witness), res.Energy, res.Attempts, res.Shards, c.candidates, c.reads)
	if len(res.ObjectiveValues) > 0 {
		line += fmt.Sprintf(" objective=%.6f", res.Objective)
	}
	return line
}

func goldenLines() []string {
	ctx := context.Background()
	var lines []string
	for _, cfg := range goldenConfigs() {
		run := func() (*qsmt.Solver, *qsmt.SolverMetrics) {
			m := qsmt.NewSolverMetrics(obs.NewRegistry())
			return qsmt.NewSolver(cfg.opts(m)), m
		}
		for i, c := range goldenFamilies() {
			s, m := run()
			res, err := s.SolveContext(ctx, c)
			lines = append(lines, fmt.Sprintf("%s solve %d %s: %s", cfg.name, i, c.Name(), resultLine(res, err, snapshot(m))))
		}
		for i, c := range goldenFamilies() {
			s, m := run()
			ws, err := s.EnumerateContext(ctx, c, 3)
			k := snapshot(m)
			verdict := verdictClass(err)
			if err == nil {
				texts := make([]string, len(ws))
				for i, w := range ws {
					texts[i] = witnessText(w)
				}
				verdict = "sat [" + strings.Join(texts, " ") + "]"
			}
			lines = append(lines, fmt.Sprintf("%s enumerate %d %s: %s attempts=%.0f candidates=%.0f reads=%.0f",
				cfg.name, i, c.Name(), verdict, k.attempts, k.candidates, k.reads))
		}
		s, m := run()
		res, err := s.OptimizeContext(ctx,
			[]qsmt.Constraint{qsmt.CharAt('a', 0, 3)},
			[]qsmt.SoftConstraint{qsmt.Soft(qsmt.MinLength(3), 2), qsmt.Soft(qsmt.CharAt('z', 1, 3), 0.5)})
		lines = append(lines, fmt.Sprintf("%s optimize: %s", cfg.name, resultLine(res, err, snapshot(m))))

		s, m = run()
		sess := s.NewIncrementalSession()
		prefix := qsmt.PrefixOf("ab", 5)
		walk := []qsmt.Constraint{
			prefix,
			qsmt.And(prefix, qsmt.Palindrome(5)),
			qsmt.And(prefix, qsmt.Palindrome(5), qsmt.CharAt('c', 2, 5)),
			qsmt.And(prefix, qsmt.Palindrome(5)),
		}
		for step, c := range walk {
			prev := snapshot(m)
			res, err := sess.Solve(ctx, "path", c)
			lines = append(lines, fmt.Sprintf("%s incremental %d %s: %s", cfg.name, step, c.Name(), resultLine(res, err, snapshot(m).since(prev))))
		}
	}
	custom := goldenConfigs()[1]
	for i, c := range goldenFamilies() {
		m := qsmt.NewSolverMetrics(obs.NewRegistry())
		br, _ := qsmt.NewSolver(custom.opts(m)).SolveBatch(ctx, []qsmt.Constraint{c}) // the error only reports an ended ctx
		it := br.Items[0]
		lines = append(lines, fmt.Sprintf("%s batch %d %s: %s", custom.name, i, c.Name(), resultLine(it.Result, it.Err, snapshot(m))))
	}
	return lines
}

func TestSearchGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/search_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	got := goldenLines()
	if len(got) != len(want) {
		t.Errorf("%d result lines, golden file has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("full output:\n%s", strings.Join(got, "\n"))
	}
}
