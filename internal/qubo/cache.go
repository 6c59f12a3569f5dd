package qubo

import (
	"container/list"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Fingerprint is a canonical identity of a Model's coefficients: two
// models over the same variable count with identical nonzero diagonals,
// couplers, and offset produce the same fingerprint regardless of the
// order coefficients were added in (couplers are hashed in sorted
// row-major order, and entries that were set and later cancelled back
// to zero do not contribute). The structural fields plus two
// independent 64-bit FNV-1a streams make an accidental collision
// between distinct models vanishingly unlikely, so the compile cache
// trusts a fingerprint match without re-comparing coefficients.
type Fingerprint struct {
	N      int    // variables
	Linear int    // nonzero diagonal entries
	Quad   int    // nonzero couplers
	H1, H2 uint64 // independent content hashes
}

// FNV-1a constants; the second stream perturbs the offset basis so the
// two hashes are not correlated.
const (
	fnvOffset  = 0xcbf29ce484222325
	fnvOffset2 = 0x9e3779b97f4a7c15
	fnvPrime   = 0x100000001b3
)

// newFingerprint starts the fingerprint of a model over n variables:
// both hash streams at their offset bases, fed the variable count and
// the offset.
func newFingerprint(n int, offset float64) Fingerprint {
	f := Fingerprint{N: n, H1: fnvOffset, H2: fnvOffset2}
	f.word(uint64(n))
	f.word(math.Float64bits(offset))
	return f
}

// word feeds w's eight bytes, least significant first, into both hash
// streams.
func (f *Fingerprint) word(w uint64) {
	h1, h2 := f.H1, f.H2
	for shift := 0; shift < 64; shift += 8 {
		c := w >> shift & 0xff
		h1 = (h1 ^ c) * fnvPrime
		h2 = (h2 ^ c) * fnvPrime
	}
	f.H1, f.H2 = h1, h2
}

// linear feeds one nonzero diagonal entry Q_ii = v.
func (f *Fingerprint) linear(i int, v float64) {
	f.Linear++
	f.word(uint64(i))
	f.word(math.Float64bits(v))
}

// coupler feeds one nonzero coupler Q_ij = v (i < j). Couplers must be
// fed in row-major order.
func (f *Fingerprint) coupler(i, j int, v float64) {
	f.Quad++
	f.word(uint64(i)<<32 | uint64(uint32(j)))
	f.word(math.Float64bits(v))
}

// String renders the fingerprint in its wire form,
// "qf1-<n>-<linear>-<quad>-<h1>-<h2>" with the hashes in hex. The "qf1"
// prefix versions the format so a future hash change cannot silently
// alias old keys. The form is URL-path-safe, so it can key a
// content-addressed cache endpoint directly.
func (f Fingerprint) String() string {
	return fmt.Sprintf("qf1-%d-%d-%d-%016x-%016x", f.N, f.Linear, f.Quad, f.H1, f.H2)
}

// ParseFingerprint parses the String form back into a Fingerprint. Only
// the canonical rendering is accepted: ParseFingerprint(f.String()) == f,
// and any string that String could not have produced is rejected.
func ParseFingerprint(s string) (Fingerprint, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 6 || parts[0] != "qf1" {
		return Fingerprint{}, fmt.Errorf("qubo: malformed fingerprint %q", s)
	}
	var f Fingerprint
	var err error
	if f.N, err = strconv.Atoi(parts[1]); err != nil {
		return Fingerprint{}, fmt.Errorf("qubo: malformed fingerprint %q", s)
	}
	if f.Linear, err = strconv.Atoi(parts[2]); err != nil {
		return Fingerprint{}, fmt.Errorf("qubo: malformed fingerprint %q", s)
	}
	if f.Quad, err = strconv.Atoi(parts[3]); err != nil {
		return Fingerprint{}, fmt.Errorf("qubo: malformed fingerprint %q", s)
	}
	if f.H1, err = strconv.ParseUint(parts[4], 16, 64); err != nil {
		return Fingerprint{}, fmt.Errorf("qubo: malformed fingerprint %q", s)
	}
	if f.H2, err = strconv.ParseUint(parts[5], 16, 64); err != nil {
		return Fingerprint{}, fmt.Errorf("qubo: malformed fingerprint %q", s)
	}
	if f.String() != s {
		return Fingerprint{}, fmt.Errorf("qubo: non-canonical fingerprint %q", s)
	}
	return f, nil
}

// FingerprintOf computes the canonical fingerprint of m.
func FingerprintOf(m *Model) Fingerprint {
	fp := newFingerprint(m.n, m.offset)
	for i, v := range m.diag {
		if v != 0 {
			fp.linear(i, v)
		}
	}
	for _, t := range m.Terms() { // sorted row-major: canonical order
		fp.coupler(t.I, t.J, t.W)
	}
	return fp
}

// Cache is a bounded LRU of compiled models keyed by Fingerprint. The
// solver fronts Model.Compile with one so repeated constraints — the
// dominant shape of pipeline stages and batch workloads, where the same
// few models recur thousands of times — skip compilation entirely and
// share one immutable *Compiled. Each entry also carries an opaque slot
// (see CacheEntry) for one value derived from its model, which the
// solver fills with an exact component's enumerated sample set; the
// slot is evicted with its entry. All methods are safe for concurrent
// use; a nil *Cache compiles straight through.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *CacheEntry
	items    map[Fingerprint]*list.Element
	inflight map[Fingerprint]*compileCall

	hits, misses, evictions, coalesced uint64
}

// CacheEntry is one cached compilation: the shared compiled model and
// a slot that holds one value derived from that model alone, filled at
// most once. What the slot holds is the filler's business; the cache
// only keeps it, and drops it when the entry is evicted.
type CacheEntry struct {
	fp   Fingerprint
	c    *Compiled
	slot atomic.Pointer[any]
}

// Compiled returns the entry's compiled model.
func (e *CacheEntry) Compiled() *Compiled { return e.c }

// Slot returns the value the slot was filled with, nil while it is
// empty.
func (e *CacheEntry) Slot() any {
	if v := e.slot.Load(); v != nil {
		return *v
	}
	return nil
}

// Fill puts v in an empty slot and reports whether it did; a slot that
// is already filled keeps its value.
func (e *CacheEntry) Fill(v any) bool {
	return e.slot.CompareAndSwap(nil, &v)
}

// compileCall is one in-flight compilation that concurrent misses on
// the same fingerprint coalesce onto: the owner compiles, publishes the
// entry, and closes done; followers block on done and share it.
type compileCall struct {
	done chan struct{}
	e    *CacheEntry
}

// NewCache returns a cache holding at most capacity compiled models;
// capacity <= 0 selects DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[Fingerprint]*list.Element, capacity),
		inflight: make(map[Fingerprint]*compileCall),
	}
}

// DefaultCacheCapacity is the entry bound NewCache applies when the
// caller does not choose one. For the paper's constraint sizes an entry
// holds about 1 KB of compiled model, and about 2.2 KB once its slot
// keeps an exact shard's enumerated set (at most 16 states), so 256
// entries come to about 0.6 MB (measured over a mix of AvoidChars,
// Regex, Periodic and PrefixOf shards of up to 20 variables).
const DefaultCacheCapacity = 256

// Compile returns the compiled form of m, reusing the cached result when
// an identical model (by fingerprint) was compiled before. The second
// return reports whether the result came from the cache. Compilation of
// a missing entry happens outside the lock, so a slow compile does not
// stall unrelated lookups, and concurrent misses on the same model are
// coalesced singleflight-style: the first caller compiles, everyone
// else blocks on its completion and shares the one *Compiled, so an
// identical model is compiled at most once no matter how many solves
// race on it. A lookup is counted exactly once — as a hit when it
// returns a cached or coalesced entry, as a miss only when its own
// compilation is kept — so hits+misses always equals completed lookups;
// coalesced waits are additionally counted in CacheStats.Coalesced.
func (c *Cache) Compile(m *Model) (*Compiled, bool) {
	if c == nil {
		return m.Compile(), false
	}
	e, hit := c.CompileEntry(m)
	return e.c, hit
}

// CompileEntry is Compile returning the whole cache entry, so the caller
// can read or fill its slot. Lookups are coalesced and counted exactly
// as in Compile. A nil cache returns a fresh entry that no other caller
// shares.
func (c *Cache) CompileEntry(m *Model) (*CacheEntry, bool) {
	if c == nil {
		return &CacheEntry{c: m.Compile()}, false
	}
	fp := FingerprintOf(m)
	c.mu.Lock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(*CacheEntry)
		c.mu.Unlock()
		return e, true
	}
	if call, ok := c.inflight[fp]; ok {
		// Someone else is compiling this exact model right now: wait
		// for their result instead of duplicating the work.
		c.coalesced++
		c.hits++
		c.mu.Unlock()
		<-call.done
		return call.e, true
	}
	call := &compileCall{done: make(chan struct{})}
	c.inflight[fp] = call
	c.mu.Unlock()

	e := &CacheEntry{fp: fp, c: m.Compile()}

	c.mu.Lock()
	call.e = e
	delete(c.inflight, fp)
	c.misses++
	c.insertLocked(e)
	c.mu.Unlock()
	close(call.done)
	return e, false
}

// insertLocked adds an entry and enforces the capacity bound; callers
// hold c.mu.
func (c *Cache) insertLocked(e *CacheEntry) {
	c.items[e.fp] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*CacheEntry).fp)
		c.evictions++
	}
}

// Lookup returns the cached compilation for fp, if present, touching its
// LRU position. Unlike Compile it cannot fill the entry — it is the read
// side of a content-addressed cache: a service asks whether any prior
// job already compiled this fingerprint. Lookups are not counted in
// hit/miss stats (they are presence probes, not compilations avoided).
func (c *Cache) Lookup(fp Fingerprint) (*Compiled, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[fp]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*CacheEntry).c, true
}

// Insert seeds the cache with an externally produced compilation under
// fp — the write side of a content-addressed cache, used when a replica
// fetches a peer's compiled model. The caller owns the fp↔compiled
// correspondence; an existing entry is left in place.
func (c *Cache) Insert(fp Fingerprint, compiled *Compiled) {
	if c == nil || compiled == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.insertLocked(&CacheEntry{fp: fp, c: compiled})
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
// Coalesced counts the subset of Hits that were served by waiting on a
// concurrent in-flight compilation rather than by a completed entry.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Coalesced uint64
	Entries   int
	Capacity  int
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Coalesced: c.coalesced,
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
	}
}
