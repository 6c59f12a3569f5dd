package qubo

import (
	"math/rand"
	"sync"
	"testing"
)

func TestFingerprintCanonical(t *testing.T) {
	// Same coefficients added in different orders — and with entries
	// that cancel back to zero — fingerprint identically.
	a := New(5)
	a.AddLinear(1, 2)
	a.AddQuadratic(0, 3, -1)
	a.AddQuadratic(2, 4, 0.5)
	a.AddOffset(3)

	b := New(5)
	b.AddQuadratic(4, 2, 0.5) // reversed endpoints
	b.AddOffset(3)
	b.AddQuadratic(3, 0, -1)
	b.AddLinear(1, 2)
	b.AddQuadratic(1, 2, 9)
	b.AddQuadratic(1, 2, -9) // cancels to zero: must not contribute

	if FingerprintOf(a) != FingerprintOf(b) {
		t.Fatalf("equivalent models fingerprint differently:\n%+v\n%+v", FingerprintOf(a), FingerprintOf(b))
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := func() *Model {
		m := New(4)
		m.AddLinear(0, 1)
		m.AddQuadratic(1, 2, -1)
		return m
	}
	fp := FingerprintOf(base())

	bigger := New(5)
	bigger.AddLinear(0, 1)
	bigger.AddQuadratic(1, 2, -1)
	if FingerprintOf(bigger) == fp {
		t.Error("different N collided")
	}
	coeff := base()
	coeff.AddLinear(0, 0.25)
	if FingerprintOf(coeff) == fp {
		t.Error("different coefficient collided")
	}
	moved := New(4)
	moved.AddLinear(1, 1) // same value, different variable
	moved.AddQuadratic(1, 2, -1)
	if FingerprintOf(moved) == fp {
		t.Error("moved diagonal collided")
	}
	offset := base()
	offset.AddOffset(1)
	if FingerprintOf(offset) == fp {
		t.Error("different offset collided")
	}
}

func TestCacheHitReturnsSameCompiled(t *testing.T) {
	c := NewCache(4)
	m := New(3)
	m.AddQuadratic(0, 2, -1)
	first, hit := c.Compile(m)
	if hit {
		t.Fatal("first compile reported a hit")
	}
	again, hit := c.Compile(m.Clone())
	if !hit {
		t.Fatal("identical model missed the cache")
	}
	if again != first {
		t.Fatal("cache hit returned a different *Compiled")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestCacheNilPassthrough(t *testing.T) {
	var c *Cache
	m := New(2)
	m.AddLinear(0, -1)
	compiled, hit := c.Compile(m)
	if hit || compiled == nil || compiled.N != 2 {
		t.Fatalf("nil cache Compile = (%v, %v)", compiled, hit)
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	mk := func(v float64) *Model {
		m := New(1)
		m.AddLinear(0, v)
		return m
	}
	c.Compile(mk(1)) // {1}
	c.Compile(mk(2)) // {2,1}
	c.Compile(mk(1)) // touch 1 -> {1,2}
	c.Compile(mk(3)) // evicts 2 -> {3,1}
	if _, hit := c.Compile(mk(2)); hit {
		t.Error("evicted entry still hit")
	}
	if _, hit := c.Compile(mk(1)); hit {
		// 1 was evicted by re-inserting 2 above ({2,3}); this documents
		// strict LRU order rather than asserting staleness.
		t.Error("expected 1 to have been evicted after reinserting 2")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v, want 2 entries at capacity 2", st)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8)
	models := make([]*Model, 4)
	for i := range models {
		m := New(6)
		m.AddLinear(i, 1)
		m.AddQuadratic(0, 5, float64(i+1))
		models[i] = m
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				m := models[rng.Intn(len(models))]
				compiled, _ := c.Compile(m)
				if compiled.N != 6 {
					t.Errorf("bad compiled N = %d", compiled.N)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want 4", st.Entries)
	}
}

func TestFingerprintStringRoundTrip(t *testing.T) {
	m := New(7)
	m.AddLinear(2, -1.5)
	m.AddQuadratic(0, 6, 2)
	m.AddOffset(0.25)
	fp := FingerprintOf(m)
	s := fp.String()
	back, err := ParseFingerprint(s)
	if err != nil {
		t.Fatalf("ParseFingerprint(%q): %v", s, err)
	}
	if back != fp {
		t.Fatalf("round trip changed fingerprint: %+v != %+v", back, fp)
	}
	for _, bad := range []string{
		"", "qf1", "qf0-7-1-1-0-0", "qf1-7-1-1-zz-0",
		"qf1-7-1-1-0-0", // hashes not zero-padded to 16 hex digits
		s + "-extra", "qf1--1-1-" + s[len(s)-33:],
	} {
		if _, err := ParseFingerprint(bad); err == nil {
			t.Errorf("ParseFingerprint(%q) accepted malformed input", bad)
		}
	}
}

// TestCacheConcurrentMissAccounting is the regression test for the
// concurrent-miss stats bug: when several goroutines miss on the same
// model at once, the losers of the compile race used to count a miss on
// the way in and then return the winner's entry as a hit without
// counting it, so the miss counter over-counted: misses exceeded kept
// compilations and disagreed with the returned from-cache flags. A
// model big enough that compiling outlasts the scheduler's preemption
// quantum keeps every racer inside the unlocked compile window, even
// on a single-CPU machine.
func TestCacheConcurrentMissAccounting(t *testing.T) {
	const n = 30000
	big := New(n)
	for i := 0; i < n; i++ {
		big.AddLinear(i, float64(i%7)-3)
		big.AddQuadratic(i, (i+1)%n, 1)
		big.AddQuadratic(i, (i+37)%n, -0.5)
	}
	for round := 0; round < 4; round++ {
		c := NewCache(8)
		const workers = 8
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				compiled, _ := c.Compile(big)
				if compiled.N != n {
					t.Errorf("bad compiled N = %d", compiled.N)
				}
			}()
		}
		close(start)
		wg.Wait()
		st := c.Stats()
		if st.Hits+st.Misses != workers {
			t.Fatalf("round %d: hits(%d)+misses(%d) = %d, want %d lookups",
				round, st.Hits, st.Misses, st.Hits+st.Misses, workers)
		}
		if st.Misses != 1 {
			t.Fatalf("round %d: misses = %d, want exactly 1 kept compilation", round, st.Misses)
		}
		if st.Entries != 1 {
			t.Fatalf("round %d: entries = %d, want 1", round, st.Entries)
		}
	}
}

func TestCacheLookupInsert(t *testing.T) {
	c := NewCache(2)
	m := New(3)
	m.AddQuadratic(0, 2, -1)
	fp := FingerprintOf(m)
	if _, ok := c.Lookup(fp); ok {
		t.Fatal("Lookup hit an empty cache")
	}
	compiled := m.Compile()
	c.Insert(fp, compiled)
	got, ok := c.Lookup(fp)
	if !ok || got != compiled {
		t.Fatalf("Lookup after Insert = (%p, %v), want (%p, true)", got, ok, compiled)
	}
	// Insert of an existing key keeps the first entry.
	c.Insert(fp, m.Compile())
	if got2, _ := c.Lookup(fp); got2 != compiled {
		t.Fatal("duplicate Insert replaced the existing entry")
	}
	// Lookup/Insert respect the capacity bound.
	for i := 0; i < 4; i++ {
		other := New(1)
		other.AddLinear(0, float64(i+1))
		c.Insert(FingerprintOf(other), other.Compile())
	}
	if st := c.Stats(); st.Entries > st.Capacity {
		t.Fatalf("Insert exceeded capacity: %+v", st)
	}
	// Presence probes leave hit/miss stats alone.
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Lookup/Insert moved compile stats: %+v", st)
	}
	var nilCache *Cache
	if _, ok := nilCache.Lookup(fp); ok {
		t.Fatal("nil cache Lookup hit")
	}
	nilCache.Insert(fp, compiled) // must not panic
}

// TestCacheSingleflightCoalescing pins the singleflight contract:
// concurrent misses on one model compile it exactly once, every caller
// shares the one *Compiled, and the waits are visible as Coalesced.
// The model is large enough that the owner is still compiling when the
// followers look up, so the in-flight wait path actually runs.
func TestCacheSingleflightCoalescing(t *testing.T) {
	const n = 30000
	big := New(n)
	for i := 0; i < n; i++ {
		big.AddLinear(i, float64(i%5)-2)
		big.AddQuadratic(i, (i+1)%n, 0.5)
	}
	c := NewCache(8)
	const workers = 8
	start := make(chan struct{})
	results := make([]*Compiled, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			results[w], _ = c.Compile(big)
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatalf("worker %d got a different *Compiled; singleflight should share one", w)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 compilation", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, workers-1)
	}
	if st.Coalesced > st.Hits {
		t.Fatalf("coalesced (%d) exceeds hits (%d)", st.Coalesced, st.Hits)
	}
	// Later lookups are plain hits, not coalesced waits.
	before := st.Coalesced
	if _, fromCache := c.Compile(big); !fromCache {
		t.Fatal("post-fill lookup missed")
	}
	if got := c.Stats().Coalesced; got != before {
		t.Fatalf("settled-entry hit counted as coalesced (%d -> %d)", before, got)
	}
}

// An entry's slot is filled at most once, is shared by every lookup of
// the entry, and goes with the entry when it is evicted: a recompiled
// model starts with an empty slot.
func TestCacheEntrySlot(t *testing.T) {
	model := func(w float64) *Model {
		m := New(2)
		m.AddQuadratic(0, 1, w)
		return m
	}
	c := NewCache(1)
	e, hit := c.CompileEntry(model(1))
	if hit || e.Slot() != nil {
		t.Fatalf("fresh entry: hit %v, slot %v", hit, e.Slot())
	}
	if !e.Fill("first") || e.Fill("second") {
		t.Fatal("Fill must succeed once and only once")
	}
	again, hit := c.CompileEntry(model(1))
	if !hit || again != e || again.Slot() != "first" {
		t.Fatalf("hit: entry shared %v, slot %v", again == e, again.Slot())
	}
	if compiled, _ := c.Compile(model(1)); compiled != e.Compiled() {
		t.Error("Compile and CompileEntry serve different compiled models")
	}

	c.Compile(model(2)) // evicts the first entry, slot and all
	fresh, hit := c.CompileEntry(model(1))
	if hit || fresh == e || fresh.Slot() != nil {
		t.Errorf("after eviction: hit %v, same entry %v, slot %v", hit, fresh == e, fresh.Slot())
	}

	var nilCache *Cache
	if e, hit := nilCache.CompileEntry(model(1)); hit || e.Compiled() == nil || e.Slot() != nil {
		t.Error("a nil cache must return a fresh, empty entry")
	}
}

// Concurrent fills of one slot leave exactly one value, which every
// reader sees.
func TestCacheEntrySlotConcurrentFill(t *testing.T) {
	c := NewCache(4)
	m := New(3)
	m.AddQuadratic(0, 2, -1)
	var wg sync.WaitGroup
	filled := make([]bool, 8)
	entries := make([]*CacheEntry, 8)
	for g := range filled {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entries[g], _ = c.CompileEntry(m)
			filled[g] = entries[g].Fill(g)
		}()
	}
	wg.Wait()
	winners := 0
	for g, ok := range filled {
		if entries[g] != entries[0] {
			t.Fatal("concurrent lookups of one model got different entries")
		}
		if ok {
			winners++
			if entries[0].Slot() != g {
				t.Errorf("slot holds %v, but fill %d won", entries[0].Slot(), g)
			}
		}
	}
	if winners != 1 {
		t.Errorf("%d fills won, want exactly 1", winners)
	}
}
