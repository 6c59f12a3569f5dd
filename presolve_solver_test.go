package qsmt

import (
	"fmt"
	"strings"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
)

// table1Constraints is the single-stage form of every Table 1 row: the
// constraint whose QUBO the paper prints for the row. The differential
// tests compare the presolve+lift-back path against the unreduced path
// on exactly these models.
func table1Constraints() []Constraint {
	return []Constraint{
		Reverse("hello"),
		Palindrome(6),
		Regex("a[bc]+", 5),
		Concat("hello", " world"),
		IndexOf("hi", 2, 6),
	}
}

// exactGround returns the true minimum energy of a constraint's QUBO by
// exhaustive enumeration; only call it for models within
// anneal.MaxExactVars.
func exactGround(t *testing.T, c Constraint) float64 {
	t.Helper()
	m, err := c.BuildModel()
	if err != nil {
		t.Fatalf("%s: BuildModel: %v", c.Name(), err)
	}
	ss, err := (&anneal.ExactSolver{}).Sample(m.Compile())
	if err != nil {
		t.Fatalf("%s: exact solve: %v", c.Name(), err)
	}
	return ss.Best().Energy
}

// The headline acceptance property: on every Table 1 row, the
// presolve+lift-back path must produce a verified witness at the same
// ground energy as the unreduced path. Solve only returns witnesses
// that passed Check, so a nil error is the verification.
func TestPresolveDifferentialTable1(t *testing.T) {
	for _, c := range table1Constraints() {
		on := NewSolver(&Options{Seed: 3})
		off := NewSolver(&Options{Seed: 3, Presolve: Off, WarmStart: Off})
		ron, err := on.Solve(c)
		if err != nil {
			t.Fatalf("%s: presolve-on solve: %v", c.Name(), err)
		}
		roff, err := off.Solve(c)
		if err != nil {
			t.Fatalf("%s: presolve-off solve: %v", c.Name(), err)
		}
		if diff := ron.Energy - roff.Energy; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: presolve-on energy %g != presolve-off energy %g",
				c.Name(), ron.Energy, roff.Energy)
		}
		if ron.Vars != roff.Vars {
			t.Errorf("%s: Vars %d != %d — presolve must report full-model size",
				c.Name(), ron.Vars, roff.Vars)
		}
		if err := c.Check(ron.Witness); err != nil {
			t.Errorf("%s: lifted witness fails re-check: %v", c.Name(), err)
		}
	}
}

// The same property against exhaustive enumeration on every constraint
// family, at sizes where 7n fits the exact solver: the presolve-on
// energy must equal the true ground energy, not merely the unreduced
// sampler's best.
func TestPresolveDifferentialExactSmall(t *testing.T) {
	cases := []Constraint{
		Equality("ab"),
		Reverse("abc"),
		Palindrome(3),
		Concat("a", "b"),
		IndexOf("a", 0, 3),
		Regex("a[bc]+", 3),
		And(Equality("zz"), Palindrome(2)),
	}
	for _, c := range cases {
		want := exactGround(t, c)
		s := NewSolver(&Options{Seed: 9})
		res, err := s.Solve(c)
		if err != nil {
			t.Fatalf("%s: solve: %v", c.Name(), err)
		}
		if diff := res.Energy - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: presolved energy %g != exact ground %g", c.Name(), res.Energy, want)
		}
	}
}

// Random small constraints, cross-checked exactly: for each random
// target the presolve-on solve must land on the true ground energy.
// (The qubo package runs the raw-model differential over 250 random
// QUBOs; this covers the full solver loop — encode, presolve, sample,
// lift, decode, check — end to end.)
func TestPresolveDifferentialRandomConstraints(t *testing.T) {
	state := uint64(0x9d1f)
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + splitmix64(&state)%26)
		}
		return string(b)
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + int(splitmix64(&state)%3) // 7n ≤ 21 ≤ MaxExactVars
		var c Constraint
		switch splitmix64(&state) % 4 {
		case 0:
			c = Equality(randStr(n))
		case 1:
			c = Reverse(randStr(n))
		case 2:
			c = Palindrome(n)
		default:
			c = IndexOf(randStr(1), 0, n)
		}
		want := exactGround(t, c)
		s := NewSolver(&Options{Seed: int64(trial + 1)})
		res, err := s.Solve(c)
		if err != nil {
			t.Fatalf("trial %d (%s): solve: %v", trial, c.Name(), err)
		}
		if diff := res.Energy - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("trial %d (%s): presolved energy %g != exact ground %g",
				trial, c.Name(), res.Energy, want)
		}
	}
}

// Disabling both features must be deterministic and self-consistent:
// two identically configured solvers produce identical results, and the
// presolve stats stay zero.
func TestPresolveOffIsCleanlyDisabled(t *testing.T) {
	for _, c := range table1Constraints() {
		a, err := NewSolver(&Options{Seed: 11, Presolve: Off, WarmStart: Off}).Solve(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		b, err := NewSolver(&Options{Seed: 11, Presolve: Off, WarmStart: Off}).Solve(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if a.Witness.Str != b.Witness.Str || a.Energy != b.Energy || a.Attempts != b.Attempts {
			t.Errorf("%s: disabled path not deterministic: (%q %g %d) vs (%q %g %d)",
				c.Name(), a.Witness.Str, a.Energy, a.Attempts, b.Witness.Str, b.Energy, b.Attempts)
		}
		st := a.Stats
		if st.PresolveRounds != 0 || st.PresolveEliminated != 0 || st.Presolve != 0 {
			t.Errorf("%s: presolve stats nonzero with Presolve: Off: %+v", c.Name(), st)
		}
		if st.WarmSeeded != 0 || st.WarmHits != 0 {
			t.Errorf("%s: warm stats nonzero with WarmStart: Off", c.Name())
		}
	}
}

func TestToggleResolution(t *testing.T) {
	cases := []struct {
		t    Toggle
		def  bool
		want bool
	}{
		{DefaultToggle, true, true},
		{DefaultToggle, false, false},
		{On, false, true},
		{Off, true, false},
	}
	for _, tc := range cases {
		if got := tc.t.enabled(tc.def); got != tc.want {
			t.Errorf("Toggle(%d).enabled(%v) = %v, want %v", tc.t, tc.def, got, tc.want)
		}
	}
}

// Presolve must be observable: per-solve stats and the qsmt_presolve_*
// registry families both record the stage. Equality is a pure-field
// model, so presolve fixes every variable.
func TestPresolveStatsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSolver(&Options{Seed: 2, Metrics: NewSolverMetrics(reg)})
	res, err := s.Solve(Equality("hi"))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	st := res.Stats
	if st.PresolveRounds == 0 {
		t.Error("PresolveRounds = 0, want > 0 with presolve on")
	}
	if st.PresolveEliminated != 14 {
		t.Errorf("PresolveEliminated = %d, want 14 (Equality(\"hi\") is fully fixed)", st.PresolveEliminated)
	}
	if st.PresolveRatio != 1 {
		t.Errorf("PresolveRatio = %g, want 1", st.PresolveRatio)
	}
	if res.Witness.Str != "hi" {
		t.Errorf("witness = %q, want \"hi\"", res.Witness.Str)
	}

	m := s.opts.Metrics
	if got := m.Presolves.Value(); got != 1 {
		t.Errorf("qsmt_presolve_total = %g, want 1", got)
	}
	if got := m.PresolveEliminated.Value(); got != 14 {
		t.Errorf("qsmt_presolve_vars_eliminated_total = %g, want 14", got)
	}
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("registry export: %v", err)
	}
	text := sb.String()
	for _, fam := range []string{
		"qsmt_presolve_total",
		"qsmt_presolve_vars_eliminated_total",
		"qsmt_presolve_rounds_total",
		"qsmt_presolve_reduction_ratio",
		"qsmt_presolve_seconds",
		"qsmt_presolve_warm_seeded_total",
		"qsmt_presolve_warm_hits_total",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("%s missing from registry export", fam)
		}
	}
}

// Warm starts must be observable and bounded: a solve whose sampler
// supports seeding counts WarmSeeded, and hits never exceed seeds.
// Presolve is off so the mirror couplers survive, and the explicit
// sampler keeps the whole-model SA path (the default Solve would solve
// the mirror components exactly).
func TestWarmStartObserved(t *testing.T) {
	s := NewSolver(&Options{Seed: 4, Presolve: Off, Sampler: &anneal.SimulatedAnnealer{Reads: 64, Sweeps: 1000}})
	res, err := s.Solve(Palindrome(6))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	st := res.Stats
	if st.WarmSeeded == 0 {
		t.Error("WarmSeeded = 0, want > 0 (default SA supports warm starts)")
	}
	if st.WarmHits > st.WarmSeeded {
		t.Errorf("WarmHits %d > WarmSeeded %d", st.WarmHits, st.WarmSeeded)
	}

	// A sampler the solver cannot seed (user-set InitialStates) must not
	// be counted or overwritten.
	own := anneal.GreedySeeds(mustModel(t, Palindrome(6)).Compile(), 2, 1)
	sa := &anneal.SimulatedAnnealer{Reads: 16, Sweeps: 200, Seed: 1, InitialStates: own}
	s2 := NewSolver(&Options{Seed: 4, Presolve: Off, Sampler: sa})
	res2, err := s2.Solve(Palindrome(6))
	if err != nil {
		t.Fatalf("solve with user seeds: %v", err)
	}
	if res2.Stats.WarmSeeded != 0 {
		t.Errorf("WarmSeeded = %d for a sampler with user-set InitialStates, want 0", res2.Stats.WarmSeeded)
	}
	if fmt.Sprintf("%p", sa.InitialStates) != fmt.Sprintf("%p", own) {
		t.Error("solver replaced the user's InitialStates")
	}
}

func mustModel(t *testing.T, c Constraint) *qubo.Model {
	t.Helper()
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	return m
}
