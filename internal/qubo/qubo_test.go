package qubo

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(4)
	if m.N() != 4 {
		t.Fatalf("N = %d", m.N())
	}
	m.AddLinear(0, -1)
	m.AddLinear(0, -1)
	if m.Linear(0) != -2 {
		t.Errorf("Linear(0) = %g, want -2", m.Linear(0))
	}
	m.SetLinear(0, 5)
	if m.Linear(0) != 5 {
		t.Errorf("SetLinear: Linear(0) = %g, want 5", m.Linear(0))
	}
	m.AddQuadratic(1, 3, 2)
	m.AddQuadratic(3, 1, 1) // normalized to same entry
	if m.Quadratic(1, 3) != 3 || m.Quadratic(3, 1) != 3 {
		t.Errorf("Quadratic(1,3) = %g, want 3", m.Quadratic(1, 3))
	}
	if m.NumQuadratic() != 1 {
		t.Errorf("NumQuadratic = %d, want 1", m.NumQuadratic())
	}
	m.AddQuadratic(1, 3, -3) // cancels to zero -> entry removed
	if m.NumQuadratic() != 0 {
		t.Errorf("NumQuadratic after cancel = %d, want 0", m.NumQuadratic())
	}
}

func TestPanicsOnBadIndex(t *testing.T) {
	m := New(2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AddLinear out of range", func() { m.AddLinear(2, 1) })
	mustPanic("AddLinear negative", func() { m.AddLinear(-1, 1) })
	mustPanic("AddQuadratic i==j", func() { m.AddQuadratic(1, 1, 1) })
	mustPanic("SetQuadratic i==j", func() { m.SetQuadratic(0, 0, 1) })
	mustPanic("Energy wrong length", func() { m.Energy([]Bit{1}) })
	mustPanic("New negative", func() { New(-1) })
}

func TestEnergy(t *testing.T) {
	// E(x) = -x0 + 2x1 + 3x0x1 + 1
	m := New(2)
	m.AddLinear(0, -1)
	m.AddLinear(1, 2)
	m.AddQuadratic(0, 1, 3)
	m.AddOffset(1)
	cases := []struct {
		x    []Bit
		want float64
	}{
		{[]Bit{0, 0}, 1},
		{[]Bit{1, 0}, 0},
		{[]Bit{0, 1}, 3},
		{[]Bit{1, 1}, 5},
	}
	for _, tc := range cases {
		if got := m.Energy(tc.x); got != tc.want {
			t.Errorf("Energy(%v) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func randModel(rng *rand.Rand, n int) *Model {
	m := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			m.AddLinear(i, rng.NormFloat64())
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				m.AddQuadratic(i, j, rng.NormFloat64())
			}
		}
	}
	m.AddOffset(rng.NormFloat64())
	return m
}

func randBits(rng *rand.Rand, n int) []Bit {
	x := make([]Bit, n)
	for i := range x {
		x[i] = Bit(rng.Intn(2))
	}
	return x
}

func TestCompiledEnergyMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		m := randModel(rng, n)
		c := m.Compile()
		for k := 0; k < 10; k++ {
			x := randBits(rng, n)
			em, ec := m.Energy(x), c.Energy(x)
			if math.Abs(em-ec) > 1e-9 {
				t.Fatalf("trial %d: model %g vs compiled %g", trial, em, ec)
			}
		}
	}
}

func TestFlipDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(16)
		m := randModel(rng, n)
		c := m.Compile()
		x := randBits(rng, n)
		base := c.Energy(x)
		for i := 0; i < n; i++ {
			delta := c.FlipDelta(x, i)
			x[i] ^= 1
			flipped := c.Energy(x)
			x[i] ^= 1
			if math.Abs((flipped-base)-delta) > 1e-9 {
				t.Fatalf("trial %d flip %d: delta %g, actual %g", trial, i, delta, flipped-base)
			}
		}
	}
}

func TestMerge(t *testing.T) {
	a := New(3)
	a.AddLinear(0, 1)
	a.AddQuadratic(0, 2, 2)
	a.AddOffset(1)
	b := New(3)
	b.AddLinear(0, 3)
	b.AddLinear(1, -1)
	b.AddQuadratic(0, 2, -1)
	a.Merge(b, 2)
	if a.Linear(0) != 7 || a.Linear(1) != -2 || a.Quadratic(0, 2) != 0 || a.Offset() != 1 {
		t.Errorf("Merge result wrong: l0=%g l1=%g q02=%g off=%g",
			a.Linear(0), a.Linear(1), a.Quadratic(0, 2), a.Offset())
	}
	c := New(2)
	defer func() {
		if recover() == nil {
			t.Error("Merge size mismatch did not panic")
		}
	}()
	a.Merge(c, 1)
}

func TestCloneIsIndependent(t *testing.T) {
	m := New(2)
	m.AddLinear(0, 1)
	m.AddQuadratic(0, 1, 2)
	c := m.Clone()
	c.AddLinear(0, 5)
	c.AddQuadratic(0, 1, 5)
	if m.Linear(0) != 1 || m.Quadratic(0, 1) != 2 {
		t.Error("mutating clone changed original")
	}
}

func TestDense(t *testing.T) {
	m := New(3)
	m.AddLinear(1, -4)
	m.AddQuadratic(0, 2, 7)
	d := m.Dense()
	if d[1][1] != -4 || d[0][2] != 7 || d[2][0] != 0 {
		t.Errorf("Dense wrong: %v", d)
	}
}

func TestIsingRoundTripEnergyEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		m := randModel(rng, n)
		is := m.ToIsing()
		for k := 0; k < 20; k++ {
			x := randBits(rng, n)
			s := BitsToSpins(x)
			eq, ei := m.Energy(x), is.Energy(s)
			if math.Abs(eq-ei) > 1e-9 {
				t.Fatalf("QUBO %g vs Ising %g for x=%v", eq, ei, x)
			}
		}
		back := FromIsing(is)
		for k := 0; k < 20; k++ {
			x := randBits(rng, n)
			if math.Abs(m.Energy(x)-back.Energy(x)) > 1e-9 {
				t.Fatalf("FromIsing(ToIsing(m)) energy mismatch")
			}
		}
	}
}

func TestSpinBitConversions(t *testing.T) {
	x := []Bit{1, 0, 1, 1, 0}
	s := BitsToSpins(x)
	want := []int8{1, -1, 1, 1, -1}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("BitsToSpins = %v", s)
		}
	}
	back := SpinsToBits(s)
	for i := range x {
		if back[i] != x[i] {
			t.Fatalf("SpinsToBits = %v", back)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		m := randModel(rng, 1+rng.Intn(15))
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if got.N() != m.N() {
			t.Fatalf("N %d != %d", got.N(), m.N())
		}
		for k := 0; k < 10; k++ {
			x := randBits(rng, m.N())
			if math.Abs(m.Energy(x)-got.Energy(x)) > 1e-9 {
				t.Fatal("round-tripped model has different energies")
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"",
		"l 0 1\n",                          // term before header
		"qubo x\n",                         // bad count
		"qubo 2\nl 5 1\n",                  // index out of range
		"qubo 2\nq 0 0 1\n",                // i == j
		"qubo 2\nq 0 1\n",                  // missing value
		"qubo 2\nwat 1 2 3\n",              // unknown record
		"qubo 2\noffset abc\n",             // bad offset
		"qubo 1048577\n",                   // more than MaxReadVars
		"qubo 99999999999\n",               // would allocate ~800 GB
		"qubo 2\nl 0 -1\nl 1 -1\nqubo 3\n", // repeated header drops the terms before it
	}
	for _, s := range bad {
		if _, err := Read(strings.NewReader(s)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", s)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	m, err := Read(strings.NewReader("# comment\n\nqubo 2\n# another\nl 0 -1\nq 0 1 2\n"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if m.Linear(0) != -1 || m.Quadratic(0, 1) != 2 {
		t.Error("parsed values wrong")
	}
}

func TestMaxAbsMinAbs(t *testing.T) {
	m := New(3)
	if m.MaxAbsCoefficient() != 0 || m.MinAbsNonzero() != 0 {
		t.Error("empty model should have 0 extremes")
	}
	m.AddLinear(0, -3)
	m.AddQuadratic(1, 2, 0.5)
	if m.MaxAbsCoefficient() != 3 {
		t.Errorf("MaxAbs = %g", m.MaxAbsCoefficient())
	}
	if m.MinAbsNonzero() != 0.5 {
		t.Errorf("MinAbsNonzero = %g", m.MinAbsNonzero())
	}
}

func TestWriteMatrixTruncation(t *testing.T) {
	m := New(5)
	m.AddLinear(0, -1)
	var buf bytes.Buffer
	if err := m.WriteMatrix(&buf, FormatOptions{MaxRows: 2, MaxCols: 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "...") {
		t.Errorf("expected truncation marker, got:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // 2 rows + "..."
		t.Errorf("expected 3 lines, got %d:\n%s", len(lines), out)
	}
}

func TestStringHasHeader(t *testing.T) {
	m := New(3)
	s := m.String()
	if !strings.Contains(s, "QUBO n=3") {
		t.Errorf("String() = %q", s)
	}
}

func TestEnergyLinearityProperty(t *testing.T) {
	// Property: Energy of merged model = weighted sum of energies.
	rng := rand.New(rand.NewSource(5))
	f := func(seedA, seedB int64, w float64) bool {
		if math.IsNaN(w) || math.IsInf(w, 0) || math.Abs(w) > 1e6 {
			return true
		}
		n := 6
		a := randModel(rand.New(rand.NewSource(seedA)), n)
		b := randModel(rand.New(rand.NewSource(seedB)), n)
		sum := a.Clone()
		sum.Merge(b, w)
		x := randBits(rng, n)
		want := a.Energy(x) + w*b.Energy(x)
		got := sum.Energy(x)
		return math.Abs(want-got) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDegree(t *testing.T) {
	m := New(4)
	m.AddQuadratic(0, 1, 1)
	m.AddQuadratic(0, 2, 1)
	m.AddQuadratic(0, 3, 1)
	c := m.Compile()
	if c.Degree(0) != 3 || c.Degree(1) != 1 {
		t.Errorf("degrees: %d %d", c.Degree(0), c.Degree(1))
	}
}

func TestStats(t *testing.T) {
	m := New(4)
	m.AddLinear(0, -2)
	m.AddLinear(1, 0.5)
	m.AddQuadratic(0, 1, 1)
	m.AddQuadratic(0, 2, -4)
	m.AddOffset(3)
	s := m.Stats()
	if s.N != 4 || s.LinearTerms != 2 || s.QuadTerms != 2 {
		t.Errorf("counts wrong: %+v", s)
	}
	if math.Abs(s.Density-2.0/6.0) > 1e-9 {
		t.Errorf("density = %g", s.Density)
	}
	if s.MaxAbsCoeff != 4 || s.MinAbsNonzero != 0.5 {
		t.Errorf("coeff range: %g..%g", s.MinAbsNonzero, s.MaxAbsCoeff)
	}
	if s.DynamicRange != 8 {
		t.Errorf("dynamic range = %g", s.DynamicRange)
	}
	if s.MaxDegree != 2 || math.Abs(s.MeanDegree-1.0) > 1e-9 {
		t.Errorf("degrees: max=%d mean=%g", s.MaxDegree, s.MeanDegree)
	}
	if s.Offset != 3 {
		t.Errorf("offset = %g", s.Offset)
	}
	if s.String() == "" {
		t.Error("empty Stats string")
	}
	// Empty model edge cases.
	e := New(0).Stats()
	if e.DynamicRange != 1 {
		t.Errorf("empty dynamic range = %g", e.DynamicRange)
	}
}

func TestCoefficientHistogram(t *testing.T) {
	m := New(3)
	if got := m.CoefficientHistogram(); got != "(no coefficients)" {
		t.Errorf("empty histogram = %q", got)
	}
	m.AddLinear(0, 1)
	m.AddLinear(1, 100)
	m.AddQuadratic(0, 1, 0.01)
	h := m.CoefficientHistogram()
	for _, want := range []string{"1e+0", "1e+2", "1e-2"} {
		if !strings.Contains(h, want) {
			t.Errorf("histogram missing %s:\n%s", want, h)
		}
	}
}

func TestNormalize(t *testing.T) {
	m := New(3)
	m.AddLinear(0, -4)
	m.AddLinear(1, 2)
	m.AddQuadratic(0, 2, 8)
	m.AddOffset(16)
	factor := m.Normalize()
	if factor != 8 {
		t.Fatalf("factor = %g, want 8", factor)
	}
	if m.Linear(0) != -0.5 || m.Quadratic(0, 2) != 1 || m.Offset() != 2 {
		t.Errorf("normalized coefficients wrong: %g %g %g", m.Linear(0), m.Quadratic(0, 2), m.Offset())
	}
	// Ground state invariant: argmin unchanged (scaled energies).
	rng := rand.New(rand.NewSource(6))
	orig := randModel(rng, 8)
	scaled := orig.Clone()
	f := scaled.Normalize()
	for k := 0; k < 30; k++ {
		x := randBits(rng, 8)
		if math.Abs(orig.Energy(x)-f*scaled.Energy(x)) > 1e-9 {
			t.Fatalf("energy not preserved under normalization")
		}
	}
	// Zero model.
	z := New(2)
	if z.Normalize() != 1 {
		t.Error("zero model factor != 1")
	}
}

// TestCompileCSRMatchesTerms pins each CSR row against Model.Terms():
// row i lists, in Terms order, the other endpoint and weight of every
// term touching i, so every coupler is stored twice.
func TestCompileCSRMatchesTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(24)
		m := randModel(rng, n)
		c := m.Compile()
		if len(c.RowStart) != n+1 || c.RowStart[0] != 0 {
			t.Fatalf("trial %d: RowStart shape %v", trial, c.RowStart)
		}
		terms := m.Terms()
		if int(c.RowStart[n]) != 2*len(terms) || len(c.NeighJ) != 2*len(terms) || len(c.NeighW) != 2*len(terms) {
			t.Fatalf("trial %d: CSR arena sizes %d/%d/%d for %d terms", trial, c.RowStart[n], len(c.NeighJ), len(c.NeighW), len(terms))
		}
		type entry struct {
			j int32
			w float64
		}
		rows := make([][]entry, n)
		for _, tm := range terms {
			rows[tm.I] = append(rows[tm.I], entry{int32(tm.J), tm.W})
			rows[tm.J] = append(rows[tm.J], entry{int32(tm.I), tm.W})
		}
		for i, want := range rows {
			lo, hi := c.RowStart[i], c.RowStart[i+1]
			if int(hi-lo) != len(want) || c.Degree(i) != len(want) {
				t.Fatalf("trial %d: row %d has %d CSR entries (degree %d), want %d", trial, i, hi-lo, c.Degree(i), len(want))
			}
			for p := lo; p < hi; p++ {
				if got := (entry{c.NeighJ[p], c.NeighW[p]}); got != want[p-lo] {
					t.Fatalf("trial %d: row %d entry %d: CSR %v, Terms %v", trial, i, p-lo, got, want[p-lo])
				}
			}
		}
	}
}

func TestCompileCSREmptyModel(t *testing.T) {
	c := New(0).Compile()
	if len(c.RowStart) != 1 || c.RowStart[0] != 0 || len(c.NeighJ) != 0 {
		t.Errorf("empty model CSR: RowStart=%v NeighJ=%v", c.RowStart, c.NeighJ)
	}
}
