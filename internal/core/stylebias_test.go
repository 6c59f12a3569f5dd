package core

import (
	"math"
	"testing"

	"qsmt/internal/qubo"
)

// sameModel reports whether two models over the same variables have
// equal coefficients and offsets, up to rounding.
func sameModel(a, b *qubo.Model) bool {
	if a.N() != b.N() || math.Abs(a.Offset()-b.Offset()) > 1e-12 {
		return false
	}
	for i := 0; i < a.N(); i++ {
		if math.Abs(a.Linear(i)-b.Linear(i)) > 1e-12 {
			return false
		}
		for j := i + 1; j < a.N(); j++ {
			if math.Abs(a.Quadratic(i, j)-b.Quadratic(i, j)) > 1e-12 {
				return false
			}
		}
	}
	return true
}

// checkedPart is a model minus its style bias.
func checkedPart(t *testing.T, c Constraint) *qubo.Model {
	t.Helper()
	m, err := c.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	bias, err := c.(StyleBiased).StyleBias()
	if err != nil {
		t.Fatal(err)
	}
	m.Merge(bias, -1)
	return m
}

// TestStyleBiasIsTheUncheckedPart pins StyleBias to exactly the
// printable-bias terms an encoder adds on positions its Check leaves
// free: subtracting it leaves the encoding Check enforces.
func TestStyleBiasIsTheUncheckedPart(t *testing.T) {
	raw, _ := (&Palindrome{N: 5}).BuildModel()
	if !sameModel(checkedPart(t, &Palindrome{N: 5, Printable: true}), raw) {
		t.Error("Palindrome minus its style bias is not the bias-free mirror encoding")
	}

	pinned := qubo.New(28)
	addCharTarget(pinned, 1, 'a', StrongFactor)
	addCharTarget(pinned, 2, 'b', StrongFactor)
	idx := &IndexOf{Sub: "ab", Index: 1, Length: 4}
	if !sameModel(checkedPart(t, idx), pinned) {
		t.Error("IndexOf minus its style bias is not the pinned window alone")
	}

	for _, c := range []Constraint{&PrefixOf{Prefix: "ab", Length: 4}, &SuffixOf{Suffix: "ab", Length: 4}, &CharAt{C: 'q', Index: 2, Length: 4}} {
		checked := checkedPart(t, c)
		for i := 0; i < checked.N(); i++ {
			if v := checked.Linear(i); v != 0 && math.Abs(v) != StrongFactor {
				t.Errorf("%s: variable %d keeps coefficient %v besides the pinned window's ±%v", c.Name(), i, v, StrongFactor)
			}
		}
	}

	empty, _ := (&SubstringMatch{Sub: "", Length: 3}).BuildModel()
	if bias, _ := (&SubstringMatch{Sub: "", Length: 3}).StyleBias(); !sameModel(bias, empty) {
		t.Error("an empty-substring match is all style bias")
	}
	if bias, _ := (&SubstringMatch{Sub: "ab", Length: 3}).StyleBias(); !sameModel(bias, qubo.New(21)) {
		t.Error("a substring match pins every position and has no style bias")
	}

	// Encoders whose Check requires printable characters keep their bias
	// in the checked part; a conjunction composes its members' biases.
	for _, c := range []Constraint{&AnyPrintable{N: 2}, &Periodic{Period: 1, N: 2}, &AvoidChars{Chars: []byte("t"), N: 2}} {
		if _, ok := c.(StyleBiased); ok {
			t.Errorf("%s enforces printability in Check but exposes its bias as style", c.Name())
		}
	}
	pal := &Palindrome{N: 2, Printable: true}
	conj := &Conjunction{Members: []Constraint{pal, &AnyPrintable{N: 2}}}
	palBias, _ := pal.StyleBias()
	if conjBias, _ := conj.StyleBias(); !sameModel(conjBias, palBias) {
		t.Error("a conjunction's style bias is not the sum of its members'")
	}
}
