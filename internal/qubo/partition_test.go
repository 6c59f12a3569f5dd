package qubo

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFingerprintPinned pins FingerprintOf's output: memo keys and the
// qf1 wire format must not drift when the hashing code changes.
func TestFingerprintPinned(t *testing.T) {
	m := New(5)
	m.AddLinear(0, -1.5)
	m.AddLinear(3, 2)
	m.AddQuadratic(4, 1, 0.25)
	m.AddQuadratic(0, 2, -3)
	m.AddQuadratic(2, 4, 1)
	m.AddQuadratic(0, 2, 3) // cancels back to zero
	m.AddQuadratic(1, 3, -0.5)
	m.AddOffset(7)
	const want = "qf1-5-2-3-25a191b0dcd54942-03d18b2d01558272"
	if got := FingerprintOf(m).String(); got != want {
		t.Fatalf("FingerprintOf = %s, want %s", got, want)
	}
}

// checkPartition asserts that Partition(m) agrees with Components(m):
// the same Vars, and each fingerprint equal to FingerprintOf of the
// Components shard model and of the model Induce builds.
func checkPartition(t *testing.T, m *Model) {
	t.Helper()
	want := Components(m)
	got, fps := Partition(m)
	if len(got) != len(want) || len(fps) != len(want) {
		t.Fatalf("Partition: %d shards, %d fingerprints; Components: %d shards", len(got), len(fps), len(want))
	}
	for s := range want {
		if !slices.Equal(got[s].Vars, want[s].Vars) {
			t.Fatalf("shard %d: Partition vars %v, Components vars %v", s, got[s].Vars, want[s].Vars)
		}
		if got[s].Model != nil {
			t.Fatalf("shard %d: Partition built a model", s)
		}
		if wfp := FingerprintOf(want[s].Model); fps[s] != wfp {
			t.Fatalf("shard %d: Partition fingerprint %v, Components shard %v", s, fps[s], wfp)
		}
		induced := got[s].Induce(m)
		if ifp := FingerprintOf(induced); fps[s] != ifp {
			t.Fatalf("shard %d: Partition fingerprint %v, induced model %v", s, fps[s], ifp)
		}
		if got[s].Model != induced || got[s].Induce(m) != induced {
			t.Fatalf("shard %d: Induce did not keep its model", s)
		}
	}
}

func TestPartitionMatchesComponents(t *testing.T) {
	checkPartition(t, New(0))
	checkPartition(t, New(3)) // isolated variables without coefficients
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(30)
		m := New(n)
		m.AddOffset(rng.NormFloat64())
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				m.AddLinear(i, rng.NormFloat64())
			}
		}
		for k := rng.Intn(2*n + 1); k > 0; k-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			w := rng.NormFloat64()
			m.AddQuadratic(i, j, w)
			if rng.Intn(4) == 0 {
				m.AddQuadratic(j, i, -w) // cancelled back to zero
			}
		}
		checkPartition(t, m)
	}
}

// FuzzPartition builds a model from the fuzz bytes — a variable count,
// then (i, j, weight) triples, i == j adding a linear term — and checks
// Partition against Components.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{6, 0, 1, 3, 1, 2, 250, 4, 3, 8, 5, 5, 7, 0, 1, 253})
	f.Add([]byte{0})
	f.Add([]byte{3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 40
		m := New(n)
		for rest := data[1:]; n > 0 && len(rest) >= 3; rest = rest[3:] {
			i, j := int(rest[0])%n, int(rest[1])%n
			w := float64(int8(rest[2])) / 4
			if i == j {
				m.AddLinear(i, w)
			} else {
				m.AddQuadratic(i, j, w)
			}
		}
		checkPartition(t, m)
	})
}
