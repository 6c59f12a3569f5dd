package qsmt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qsmt/internal/core"
)

// TestOptimizeTierDifferential pins the default Optimize — the shard
// tier plan with its sweep of the exact entries — to a character-level
// brute force on the benchmark's four optimize shapes: PrefixOf or
// Palindrome as the hard constraint, MinLength or MinEditsFrom as the
// objective, at n = 4, 5 and 6. The brute force enumerates every string
// over NUL, the hint and prefix letters and one spare letter. That is
// exact for these shapes: any other character can be swapped for the
// spare one (consistently, for a palindrome) without changing
// feasibility or the objective. Hints and prefixes draw from five
// letters, so the n = 6 brute force stays near 7⁶ strings under -race.
func TestOptimizeTierDifferential(t *testing.T) {
	for n := 4; n <= 6; n++ {
		for shape := 0; shape < 4; shape++ {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(10*n+shape)))
				word := func(k int) string {
					b := make([]byte, k)
					for i := range b {
						b[i] = byte('a' + rng.Intn(5))
					}
					return string(b)
				}
				var hard, obj Constraint
				letters := ""
				if shape%2 == 0 {
					prefix := word(1 + rng.Intn(2))
					hard, letters = PrefixOf(prefix, n), prefix
				} else {
					hard = Palindrome(n)
				}
				if shape/2 == 0 {
					obj = MinLength(n)
				} else {
					hint := word(n)
					obj, letters = MinEditsFrom(hint), letters+hint
				}
				name := fmt.Sprintf("n=%d/%s+%s/seed=%d", n, hard.Name(), obj.Name(), seed)
				t.Run(name, func(t *testing.T) {
					want := bruteForceStrings(t, hard, obj.(core.Objective), n, letters)
					res, err := NewSolver(&Options{Seed: seed}).Optimize([]Constraint{hard}, []SoftConstraint{Soft(obj, 1)})
					if err != nil {
						t.Fatalf("Optimize: %v", err)
					}
					if err := hard.Check(res.Witness); err != nil {
						t.Fatalf("witness %q violates the hard constraint: %v", res.Witness.Str, err)
					}
					if math.Abs(res.Objective-want) > 1e-9 {
						t.Errorf("objective = %v (witness %q), brute force says %v", res.Objective, res.Witness.Str, want)
					}
				})
			}
		}
	}
}

// bruteForceStrings returns the least objective value over every
// n-character string drawn from NUL, the given letters and one spare
// letter that passes the hard constraint's Check.
func bruteForceStrings(t *testing.T, hard Constraint, obj core.Objective, n int, letters string) float64 {
	t.Helper()
	alphabet := []byte{0}
	for i := 0; i < len(letters); i++ {
		if strings.IndexByte(string(alphabet), letters[i]) < 0 {
			alphabet = append(alphabet, letters[i])
		}
	}
	for c := byte('a'); c <= 'z'; c++ {
		if strings.IndexByte(string(alphabet), c) < 0 {
			alphabet = append(alphabet, c) // the spare letter
			break
		}
	}
	best := math.Inf(1)
	pick := make([]int, n)
	buf := make([]byte, n)
	for {
		for i, k := range pick {
			buf[i] = alphabet[k]
		}
		w := Witness{Kind: WitnessString, Str: string(buf)}
		if hard.Check(w) == nil {
			v, err := obj.Value(w)
			if err != nil {
				t.Fatalf("grading %q: %v", w.Str, err)
			}
			best = math.Min(best, v)
		}
		i := 0
		for ; i < n; i++ {
			if pick[i]++; pick[i] < len(alphabet) {
				break
			}
			pick[i] = 0
		}
		if i == n {
			return best
		}
	}
}

// TestOptimizeSampledEntriesFanOut: entries above the exact tier go to
// the sampler, one goroutine per entry after the first (make race
// runs it under the race detector). Periodic(2, 6) ties positions 0, 2, 4 and
// 1, 3, 5, so with the MinEditsFrom auxiliaries it plans onto two
// 24-variable components, and each class of three positions costs at
// least two edits against "abcabc".
func TestOptimizeSampledEntriesFanOut(t *testing.T) {
	hard, obj := Periodic(2, 6), MinEditsFrom("abcabc")
	want := bruteForceStrings(t, hard, obj.(core.Objective), 6, "abc")
	res, err := NewSolver(&Options{Seed: 5}).Optimize([]Constraint{hard}, []SoftConstraint{Soft(obj, 1)})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if st := res.Stats; res.Shards != 2 || st.ExactShards != 0 || st.Sampler != "SimulatedAnnealer" {
		t.Fatalf("planned %d shards, %d exact, sampler %q; want two sampled entries", res.Shards, st.ExactShards, st.Sampler)
	}
	if err := hard.Check(res.Witness); err != nil {
		t.Fatalf("witness %q violates the hard constraint: %v", res.Witness.Str, err)
	}
	if res.Objective != want {
		t.Errorf("objective = %v (witness %q), brute force says %v", res.Objective, res.Witness.Str, want)
	}
}
