package core

import (
	"errors"
	"sync"
	"testing"

	"qsmt/internal/anneal"
	"qsmt/internal/ascii7"
	"qsmt/internal/qubo"
	"qsmt/internal/strtheory"
)

// exactGround returns all exact ground states of a constraint's model,
// decoded and checked. Only usable when NumVars ≤ anneal.MaxExactVars.
func exactGround(t *testing.T, c Constraint) []Witness {
	t.Helper()
	m, err := c.BuildModel()
	if err != nil {
		t.Fatalf("%s: BuildModel: %v", c.Name(), err)
	}
	ss, err := (&anneal.ExactSolver{MaxStates: 4096, Tol: 1e-9}).Sample(m.Compile())
	if err != nil {
		t.Fatalf("%s: exact solve: %v", c.Name(), err)
	}
	var out []Witness
	for _, s := range ss.Samples {
		w, err := c.Decode(s.X)
		if err != nil {
			continue // degenerate states may fail to decode (e.g. includes one-hot)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no decodable ground states", c.Name())
	}
	return out
}

// annealBest solves a constraint with the simulated annealer and returns
// the best decoded witness.
func annealBest(t *testing.T, c Constraint, seed int64) Witness {
	t.Helper()
	m, err := c.BuildModel()
	if err != nil {
		t.Fatalf("%s: BuildModel: %v", c.Name(), err)
	}
	sa := &anneal.SimulatedAnnealer{Reads: 32, Sweeps: 600, Seed: seed}
	ss, err := sa.Sample(m.Compile())
	if err != nil {
		t.Fatalf("%s: anneal: %v", c.Name(), err)
	}
	for _, s := range ss.Samples {
		w, err := c.Decode(s.X)
		if err == nil {
			return w
		}
	}
	t.Fatalf("%s: no decodable sample", c.Name())
	return Witness{}
}

func TestEqualityMatrixMatchesPaperExample(t *testing.T) {
	// §4.1: generating "a" (ASCII 97 = 1100001) requires a 7×7 QUBO with
	// diagonal [-A, -A, +A, +A, +A, +A, -A].
	c := &Equality{Target: "a"}
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 7 {
		t.Fatalf("N = %d, want 7", m.N())
	}
	want := []float64{-1, -1, 1, 1, 1, 1, -1}
	for i, v := range want {
		if m.Linear(i) != v {
			t.Errorf("diag[%d] = %g, want %g", i, m.Linear(i), v)
		}
	}
	if m.NumQuadratic() != 0 {
		t.Errorf("equality should be purely diagonal, has %d couplers", m.NumQuadratic())
	}
}

func TestEqualityGroundStateIsTarget(t *testing.T) {
	c := &Equality{Target: "cat"}
	ground := exactGround(t, c)
	if len(ground) != 1 {
		t.Fatalf("equality should have a unique ground state, got %d", len(ground))
	}
	if ground[0].Str != "cat" {
		t.Errorf("ground = %q, want %q", ground[0].Str, "cat")
	}
	if err := c.Check(ground[0]); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestEqualityGroundEnergyIsMinusOnes(t *testing.T) {
	// The ground energy equals −A·(number of one-bits in the encoding).
	c := &Equality{Target: "ab"}
	m, _ := c.BuildModel()
	bits, _ := ascii7.Encode("ab")
	ones := 0
	for _, b := range bits {
		if b == 1 {
			ones++
		}
	}
	xs := make([]qubo.Bit, len(bits))
	copy(xs, bits)
	if got := m.Energy(xs); got != -float64(ones) {
		t.Errorf("E(target) = %g, want %g", got, -float64(ones))
	}
}

func TestEqualityCustomA(t *testing.T) {
	c := &Equality{Target: "a", A: 3}
	m, _ := c.BuildModel()
	if m.Linear(0) != -3 || m.Linear(2) != 3 {
		t.Errorf("custom A not applied: %g %g", m.Linear(0), m.Linear(2))
	}
}

func TestEqualityRejectsNonASCII(t *testing.T) {
	c := &Equality{Target: "\x80"}
	if _, err := c.BuildModel(); err == nil {
		t.Fatal("non-ASCII target accepted")
	}
}

func TestEqualityAnnealedSolve(t *testing.T) {
	c := &Equality{Target: "hello"}
	w := annealBest(t, c, 7)
	if err := c.Check(w); err != nil {
		t.Errorf("annealed witness %v fails: %v", w, err)
	}
}

func TestConcatGroundState(t *testing.T) {
	c := &Concat{Parts: []string{"ab", "c"}}
	ground := exactGround(t, c)
	if len(ground) != 1 || ground[0].Str != "abc" {
		t.Fatalf("ground = %v", ground)
	}
	if err := c.Check(ground[0]); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestConcatTable1Row4FirstStage(t *testing.T) {
	// Table 1 row 4 concatenates "hello" and "world" (with a space in the
	// printed output, the paper concatenates "hello" + " world").
	c := &Concat{Parts: []string{"hello", " world"}}
	w := annealBest(t, c, 11)
	if w.Str != "hello world" {
		t.Errorf("concat = %q, want %q", w.Str, "hello world")
	}
}

func TestConcatEmptyParts(t *testing.T) {
	c := &Concat{Parts: nil}
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 0 {
		t.Errorf("empty concat should have 0 vars, has %d", m.N())
	}
	w, err := c.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Check(w); err != nil {
		t.Errorf("Check of empty concat: %v", err)
	}
}

func TestSubstringMatchOverwriteSemantics(t *testing.T) {
	// §4.3's worked example: "cat" in a 4-character string encodes "ccat".
	c := &SubstringMatch{Sub: "cat", Length: 4}
	ground := exactGround(t, c)
	if len(ground) != 1 {
		t.Fatalf("overwrite encoding should pin every position; got %d ground states", len(ground))
	}
	if ground[0].Str != "ccat" {
		t.Errorf("ground = %q, want %q (paper §4.3)", ground[0].Str, "ccat")
	}
	if err := c.Check(ground[0]); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestSubstringMatchExactLength(t *testing.T) {
	c := &SubstringMatch{Sub: "hi", Length: 2}
	ground := exactGround(t, c)
	if len(ground) != 1 || ground[0].Str != "hi" {
		t.Fatalf("ground = %v", ground)
	}
}

func TestSubstringMatchChecksAnyWindow(t *testing.T) {
	c := &SubstringMatch{Sub: "at", Length: 4}
	// Check accepts the substring at any position, not just the encoded one.
	for _, s := range []string{"atxx", "xatx", "xxat"} {
		if err := c.Check(Witness{Kind: WitnessString, Str: s}); err != nil {
			t.Errorf("Check(%q): %v", s, err)
		}
	}
	if err := c.Check(Witness{Kind: WitnessString, Str: "axtx"}); err == nil {
		t.Error("Check accepted a string without the substring")
	}
	if err := c.Check(Witness{Kind: WitnessString, Str: "at"}); err == nil {
		t.Error("Check accepted wrong length")
	}
}

func TestSubstringMatchUnsatisfiable(t *testing.T) {
	c := &SubstringMatch{Sub: "long", Length: 2}
	if _, err := c.BuildModel(); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestSubstringMatchEmptySub(t *testing.T) {
	// SMT-LIB str.contains: every string contains "", so the constraint
	// is satisfiable and any ground state must pass Check.
	c := &SubstringMatch{Sub: "", Length: 2}
	m, err := c.BuildModel()
	if err != nil {
		t.Fatalf("empty substring rejected: %v", err)
	}
	if m.N() != c.NumVars() {
		t.Fatalf("model has %d vars, want %d", m.N(), c.NumVars())
	}
	ground := exactGround(t, c)
	if len(ground) == 0 {
		t.Fatal("no decodable ground state")
	}
	for _, w := range ground {
		if err := c.Check(w); err != nil {
			t.Errorf("ground witness %q fails check: %v", w.Str, err)
		}
	}
}

func TestIncludesFindsFirstOccurrence(t *testing.T) {
	// "l" occurs in "hello" at 2 and 3; the bias must pick 2.
	c := &Includes{T: "hello", S: "l"}
	ground := exactGround(t, c)
	if len(ground) != 1 {
		t.Fatalf("got %d decodable ground states, want 1", len(ground))
	}
	if ground[0].Index != 2 {
		t.Errorf("index = %d, want 2", ground[0].Index)
	}
	if err := c.Check(ground[0]); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestIncludesLongerNeedle(t *testing.T) {
	c := &Includes{T: "abcabc", S: "abc"}
	ground := exactGround(t, c)
	if ground[0].Index != 0 {
		t.Errorf("index = %d, want 0", ground[0].Index)
	}
}

func TestIncludesAbsentNeedleFailsCheck(t *testing.T) {
	c := &Includes{T: "hello", S: "xyz"}
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := (&anneal.ExactSolver{}).Sample(m.Compile())
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Decode(ss.Best().X)
	if err == nil {
		// Decoded to some partial-match index; Check must reject it.
		if cerr := c.Check(w); cerr == nil {
			t.Error("Check accepted a non-occurrence")
		} else if !errors.Is(cerr, ErrCheckFailed) && !errors.Is(cerr, ErrUnsatisfiable) {
			t.Errorf("unexpected error type: %v", cerr)
		}
	}
}

func TestIncludesNeedleLongerThanHaystack(t *testing.T) {
	c := &Includes{T: "ab", S: "abc"}
	if _, err := c.BuildModel(); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
}

func TestIncludesDecodeRejectsZeroOrMultiple(t *testing.T) {
	c := &Includes{T: "hello", S: "l"} // 5 positions
	if _, err := c.Decode([]Bit{0, 0, 0, 0, 0}); err == nil {
		t.Error("all-zero decode accepted")
	}
	if _, err := c.Decode([]Bit{0, 1, 1, 0, 0}); err == nil {
		t.Error("two-hot decode accepted")
	}
	w, err := c.Decode([]Bit{0, 0, 1, 0, 0})
	if err != nil || w.Index != 2 {
		t.Errorf("one-hot decode = %v, %v", w, err)
	}
}

func TestIncludesOneHotPenaltyDominates(t *testing.T) {
	// Selecting two full matches must cost more than selecting one.
	c := &Includes{T: "aaa", S: "a"}
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	one := m.Energy([]qubo.Bit{1, 0, 0})
	two := m.Energy([]qubo.Bit{1, 1, 0})
	if two <= one {
		t.Errorf("two selections (%g) should cost more than one (%g)", two, one)
	}
	none := m.Energy([]qubo.Bit{0, 0, 0})
	if one >= none {
		t.Errorf("selecting a match (%g) should beat selecting nothing (%g)", one, none)
	}
}

func TestIndexOfWindowPinned(t *testing.T) {
	// 3-char string with "b" at index 1: window is strong, rest is soft.
	c := &IndexOf{Sub: "b", Index: 1, Length: 3}
	ground := exactGround(t, c)
	for _, w := range ground {
		if err := c.Check(w); err != nil {
			t.Errorf("ground state %v fails: %v", w, err)
		}
	}
	// The soft positions must be genuinely degenerate: more than one
	// ground state.
	if len(ground) < 2 {
		t.Errorf("expected degenerate filler positions, got %d ground states", len(ground))
	}
}

func TestIndexOfStrongVsSoftCoefficients(t *testing.T) {
	c := &IndexOf{Sub: "hi", Index: 2, Length: 6}
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	// Window bits (chars 2,3) carry ±2A entries.
	i := ascii7.BitIndex(2, 0) // 'h' = 1101000, bit 0 is 1 → −2A
	if m.Linear(i) != -2 {
		t.Errorf("strong entry = %g, want -2", m.Linear(i))
	}
	// Soft positions carry only 0.1-scale terms.
	j := ascii7.BitIndex(0, 0)
	if v := m.Linear(j); v > -0.1 || v < -0.3 {
		t.Errorf("soft entry = %g, want in [-0.3,-0.1]", v)
	}
}

func TestIndexOfTable1Row5Shape(t *testing.T) {
	// Table 1 row 5: length-6 string containing "hi" at index 2.
	c := &IndexOf{Sub: "hi", Index: 2, Length: 6}
	w := annealBest(t, c, 13)
	if err := c.Check(w); err != nil {
		t.Errorf("annealed witness %v fails: %v", w, err)
	}
	if got := strtheory.Substr(w.Str, 2, 2); got != "hi" {
		t.Errorf("substring at 2 = %q", got)
	}
}

func TestIndexOfOutOfRange(t *testing.T) {
	for _, c := range []*IndexOf{
		{Sub: "hi", Index: 5, Length: 6},
		{Sub: "hi", Index: -1, Length: 6},
		{Sub: "toolong", Index: 0, Length: 3},
	} {
		if _, err := c.BuildModel(); !errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("%+v: err = %v, want ErrUnsatisfiable", c, err)
		}
	}
}

func TestLengthGadget(t *testing.T) {
	c := &Length{L: 2, N: 3}
	ground := exactGround(t, c)
	if len(ground) != 1 {
		t.Fatalf("length gadget should be fully pinned, got %d states", len(ground))
	}
	w := ground[0]
	if err := c.Check(w); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got, err := c.IndicatedLength(w); err != nil || got != 2 {
		t.Errorf("IndicatedLength = %d, %v", got, err)
	}
	// The witness is the unary pattern: two DELs then a NUL.
	want := string([]byte{0x7f, 0x7f, 0x00})
	if w.Str != want {
		t.Errorf("witness = %q, want %q", w.Str, want)
	}
}

func TestLengthErrors(t *testing.T) {
	if _, err := (&Length{L: 4, N: 3}).BuildModel(); !errors.Is(err, ErrUnsatisfiable) {
		t.Error("L > N accepted")
	}
	if _, err := (&Length{L: -1, N: 3}).BuildModel(); err == nil {
		t.Error("negative L accepted")
	}
	c := &Length{L: 1, N: 2}
	if err := c.Check(Witness{Kind: WitnessString, Str: string([]byte{0x7f, 0x01})}); err == nil {
		t.Error("wrong pattern accepted")
	}
}

func TestPalindromeMatrixMatchesPaper(t *testing.T) {
	// §4.10: +A on the diagonal of mirrored bits, −2A on the coupler.
	c := &Palindrome{N: 2}
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	i := ascii7.BitIndex(0, 0)
	k := ascii7.BitIndex(1, 0)
	if m.Linear(i) != 1 || m.Linear(k) != 1 {
		t.Errorf("diagonals = %g, %g, want 1, 1", m.Linear(i), m.Linear(k))
	}
	if m.Quadratic(i, k) != -2 {
		t.Errorf("coupler = %g, want -2", m.Quadratic(i, k))
	}
}

func TestPalindromeGroundStatesAreExactlyPalindromes(t *testing.T) {
	c := &Palindrome{N: 2} // 14 vars → 2^14 states, 2^7 palindromes
	ground := exactGround(t, c)
	if len(ground) != 128 {
		t.Fatalf("got %d ground states, want 128 (one per mirrored character)", len(ground))
	}
	for _, w := range ground {
		if err := c.Check(w); err != nil {
			t.Errorf("ground %q is not a palindrome", w.Str)
		}
	}
}

func TestPalindromeOddMiddleFree(t *testing.T) {
	c := &Palindrome{N: 3}
	w := annealBest(t, c, 17)
	if err := c.Check(w); err != nil {
		t.Errorf("annealed %v fails: %v", w, err)
	}
}

func TestPalindromeTable1Row2(t *testing.T) {
	// Table 1 row 2: generate a palindrome of length 6.
	c := &Palindrome{N: 6, Printable: true}
	w := annealBest(t, c, 19)
	if err := c.Check(w); err != nil {
		t.Errorf("annealed %v fails: %v", w, err)
	}
	for i := 0; i < len(w.Str); i++ {
		if w.Str[i] < 0x20 {
			t.Errorf("printable palindrome contains control byte %#x", w.Str[i])
		}
	}
}

func TestPalindromePrintableBiasKeepsMirrorGroundStates(t *testing.T) {
	// With the bias on, ground states must still be palindromes.
	c := &Palindrome{N: 2, Printable: true}
	ground := exactGround(t, c)
	for _, w := range ground {
		if !strtheory.IsPalindrome(w.Str) {
			t.Errorf("biased ground %q not a palindrome", w.Str)
		}
	}
}

func TestPalindromeZeroAndOne(t *testing.T) {
	for _, n := range []int{0, 1} {
		c := &Palindrome{N: n}
		m, err := c.BuildModel()
		if err != nil {
			t.Fatal(err)
		}
		if m.NumQuadratic() != 0 {
			t.Errorf("N=%d should have no couplers", n)
		}
	}
	if _, err := (&Palindrome{N: -1}).BuildModel(); err == nil {
		t.Error("negative N accepted")
	}
}

func TestRegexLiteralOnly(t *testing.T) {
	c := &Regex{Pattern: "ab", Length: 2}
	ground := exactGround(t, c)
	if len(ground) != 1 || ground[0].Str != "ab" {
		t.Fatalf("ground = %v", ground)
	}
}

func TestRegexClassGroundStatesAreClassMembers(t *testing.T) {
	// §4.11 example: [bc] averaged encoding frees exactly the last bit,
	// so ground states are 'b' and 'c'.
	c := &Regex{Pattern: "[bc]", Length: 1}
	ground := exactGround(t, c)
	got := map[string]bool{}
	for _, w := range ground {
		got[w.Str] = true
	}
	if len(got) != 2 || !got["b"] || !got["c"] {
		t.Errorf("ground states = %v, want {b, c}", got)
	}
}

func TestRegexTable1Row3(t *testing.T) {
	// Table 1 row 3: a[bc]+ of length 5 (paper's output: "abcbb").
	c := &Regex{Pattern: "a[bc]+", Length: 5}
	w := annealBest(t, c, 23)
	if err := c.Check(w); err != nil {
		t.Errorf("annealed %v fails: %v", w, err)
	}
	if w.Str[0] != 'a' {
		t.Errorf("first char = %q", w.Str[:1])
	}
	for i := 1; i < 5; i++ {
		if w.Str[i] != 'b' && w.Str[i] != 'c' {
			t.Errorf("char %d = %q, want b or c", i, w.Str[i:i+1])
		}
	}
}

func TestRegexPlusAfterLiteral(t *testing.T) {
	c := &Regex{Pattern: "ab+", Length: 4}
	ground := exactGround(t, c)
	if len(ground) != 1 || ground[0].Str != "abbb" {
		t.Fatalf("ground = %v, want abbb", ground)
	}
}

func TestRegexUnsatisfiableLength(t *testing.T) {
	c := &Regex{Pattern: "abc", Length: 5}
	if _, err := c.BuildModel(); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	c2 := &Regex{Pattern: "abc", Length: 2}
	if _, err := c2.BuildModel(); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
}

// Check caches the parsed pattern; concurrent Checks share it, and a
// changed Pattern field is parsed afresh.
func TestRegexCheckParsedPatternCache(t *testing.T) {
	c := &Regex{Pattern: "a[bc]+", Length: 3}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Check(Witness{Kind: WitnessString, Str: "abc"}); err != nil {
					t.Errorf("abc: %v", err)
				}
				if err := c.Check(Witness{Kind: WitnessString, Str: "bbc"}); !errors.Is(err, ErrCheckFailed) {
					t.Errorf("bbc: err = %v, want ErrCheckFailed", err)
				}
			}
		}()
	}
	wg.Wait()
	c.Pattern = "b[bc]+"
	if err := c.Check(Witness{Kind: WitnessString, Str: "bbc"}); err != nil {
		t.Errorf("after the pattern changed, bbc: %v", err)
	}
}

func TestRegexBadPattern(t *testing.T) {
	c := &Regex{Pattern: "[", Length: 1}
	if _, err := c.BuildModel(); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if err := c.Check(Witness{Kind: WitnessString, Str: "x"}); err == nil {
		t.Fatal("Check with bad pattern accepted")
	}
}

func TestRegexMajorityCaveatDetectedByCheck(t *testing.T) {
	// [ad] frees two bits; some ground states ('`', 'e') are outside the
	// class. Check must reject them.
	c := &Regex{Pattern: "[ad]", Length: 1}
	ground := exactGround(t, c)
	inClass, outClass := 0, 0
	for _, w := range ground {
		if err := c.Check(w); err == nil {
			inClass++
		} else {
			outClass++
		}
	}
	if inClass == 0 {
		t.Error("no in-class ground states for [ad]")
	}
	if outClass == 0 {
		t.Error("expected the paper's averaging caveat to produce out-of-class ground states for [ad]")
	}
}

func TestWitnessString(t *testing.T) {
	if s := (Witness{Kind: WitnessString, Str: "x"}).String(); s != `"x"` {
		t.Errorf("String = %s", s)
	}
	if s := (Witness{Kind: WitnessIndex, Index: 3}).String(); s != "index 3" {
		t.Errorf("String = %s", s)
	}
}

func TestChecksRejectWrongWitnessKind(t *testing.T) {
	str := Witness{Kind: WitnessString, Str: "x"}
	idx := Witness{Kind: WitnessIndex, Index: 0}
	kindChecks := []struct {
		c Constraint
		w Witness
	}{
		{&Equality{Target: "x"}, idx},
		{&Concat{Parts: []string{"x"}}, idx},
		{&ReplaceAll{Input: "x", X: 'a', Y: 'b'}, idx},
		{&Replace{Input: "x", X: 'a', Y: 'b'}, idx},
		{&Reverse{Input: "x"}, idx},
		{&SubstringMatch{Sub: "x", Length: 1}, idx},
		{&IndexOf{Sub: "x", Index: 0, Length: 1}, idx},
		{&Length{L: 1, N: 1}, idx},
		{&Palindrome{N: 1}, idx},
		{&Regex{Pattern: "x", Length: 1}, idx},
		{&Includes{T: "x", S: "x"}, str},
	}
	for _, tc := range kindChecks {
		if err := tc.c.Check(tc.w); err == nil {
			t.Errorf("%s accepted wrong witness kind", tc.c.Name())
		}
	}
}

func TestDecodeRejectsWrongLength(t *testing.T) {
	cs := []Constraint{
		&Equality{Target: "ab"},
		&Includes{T: "abc", S: "a"},
		&Palindrome{N: 2},
	}
	for _, c := range cs {
		if _, err := c.Decode(make([]Bit, c.NumVars()+1)); err == nil {
			t.Errorf("%s accepted oversized assignment", c.Name())
		}
	}
}
