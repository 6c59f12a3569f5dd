package remote

// cas.go is the shared content-addressed compile cache behind the
// /v1/cache endpoints: models are stored under their canonical
// qubo.Fingerprint, so a client (or a pool front-end fanning one job
// out to replicas) uploads each distinct QUBO once and afterwards
// submits jobs by fingerprint alone. Replicas configured with
// CachePeers fill local misses from their siblings, so one upload
// anywhere serves the whole pool.

import (
	"container/list"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"qsmt/internal/qubo"
)

// DefaultCASCapacity bounds distinct models retained by a ModelCAS.
const DefaultCASCapacity = 256

// MaxModelBytes bounds uploaded model texts (same budget as request
// bodies).
const MaxModelBytes = MaxRequestBytes

// ModelCAS is a bounded LRU store of models keyed by content
// fingerprint, holding both the canonical text (re-served to peers) and
// the compiled form (handed to job workers without re-parsing). All
// methods are safe for concurrent use; the zero value is not ready, use
// NewModelCAS.
type ModelCAS struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // *casEntry, front = most recent
	entries map[qubo.Fingerprint]*list.Element
}

type casEntry struct {
	fp       qubo.Fingerprint
	text     string
	compiled *qubo.Compiled
}

// NewModelCAS builds a store bounded at capacity models; non-positive
// capacity selects DefaultCASCapacity.
func NewModelCAS(capacity int) *ModelCAS {
	if capacity <= 0 {
		capacity = DefaultCASCapacity
	}
	return &ModelCAS{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[qubo.Fingerprint]*list.Element),
	}
}

// get returns the stored model for fp, touching its LRU position.
func (c *ModelCAS) get(fp qubo.Fingerprint) (string, *qubo.Compiled, bool) {
	if c == nil {
		return "", nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return "", nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*casEntry)
	return e.text, e.compiled, true
}

// put stores a model under its fingerprint; an existing entry is
// refreshed in LRU order but not replaced (content-addressed entries
// are immutable by construction).
func (c *ModelCAS) put(fp qubo.Fingerprint, text string, compiled *qubo.Compiled) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[fp] = c.order.PushFront(&casEntry{fp: fp, text: text, compiled: compiled})
	for len(c.entries) > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*casEntry).fp)
	}
}

// Len reports stored models.
func (c *ModelCAS) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// parseModel parses, fingerprints and compiles a model text without
// storing it, so a caller can check the fingerprint first.
func parseModel(text string) (qubo.Fingerprint, *qubo.Compiled, error) {
	model, err := qubo.Read(strings.NewReader(text))
	if err != nil {
		return qubo.Fingerprint{}, nil, fmt.Errorf("remote: malformed model: %w", err)
	}
	return qubo.FingerprintOf(model), model.Compile(), nil
}

// handleCachePut ingests a model body under PUT /v1/cache/{fp}. The
// path fingerprint must match the body's actual content fingerprint —
// a mismatch is a corrupt upload and is rejected before anything is
// stored.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	claimed, err := qubo.ParseFingerprint(r.PathValue("fp"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed fingerprint: "+err.Error())
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxModelBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > MaxModelBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "model exceeds limit")
		return
	}
	fp, compiled, err := parseModel(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if fp != claimed {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("content fingerprint %s does not match path %s", fp, claimed))
		return
	}
	s.CAS.put(fp, string(body), compiled)
	w.WriteHeader(http.StatusCreated)
}

// handleCacheGet serves a stored model text (GET) or just its presence
// (HEAD) under /v1/cache/{fp}.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	fp, err := qubo.ParseFingerprint(r.PathValue("fp"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed fingerprint: "+err.Error())
		return
	}
	text, _, ok := s.CAS.get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, "model not cached")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	_, _ = io.WriteString(w, text)
}

// fillFromPeers tries each configured peer replica's cache for fp,
// verifying the fetched content against the requested fingerprint
// before trusting it. Returns nil when no peer has the model.
func (s *Server) fillFromPeers(ctx context.Context, fp qubo.Fingerprint) *qubo.Compiled {
	if s.CAS == nil || len(s.CachePeers) == 0 {
		return nil
	}
	client := s.PeerClient
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	for _, peer := range s.CachePeers {
		url := strings.TrimRight(peer, "/") + "/v1/cache/" + fp.String()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, MaxModelBytes+1))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) > MaxModelBytes {
			continue
		}
		got, compiled, err := parseModel(string(body))
		if err != nil || got != fp {
			continue // peer served garbage
		}
		s.CAS.put(fp, string(body), compiled)
		return compiled
	}
	return nil
}
