package ecachesync

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/ecache"
)

// syncWire is the JSON body of one Sync round-trip: the request carries the
// scope, the pushing node's id and its seq-tagged pushes; the response the
// scope's full global state.
type syncWire struct {
	Scope  Scope             `json:"scope"`
	Node   string            `json:"node,omitempty"`
	Pushes []Push            `json:"pushes,omitempty"`
	Paths  []ecache.PathStat `json:"paths,omitempty"`
}

// Handler serves a Store over HTTP: POST with a syncWire body, syncWire
// back. The router mounts this at /ecache/sync so shards need exactly one
// upstream address for both routing and cache sync.
func Handler(s Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req syncWire
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad sync body: %v", err), http.StatusBadRequest)
			return
		}
		global, err := s.Sync(r.Context(), req.Scope, req.Node, req.Pushes)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, ErrInvalidPush) {
				code = http.StatusBadRequest
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(syncWire{Scope: req.Scope, Paths: global})
	})
}

// HTTPStore is a Store client against a remote Handler.
type HTTPStore struct {
	// URL is the full endpoint, e.g. "http://router:8440/ecache/sync".
	URL string
	// Client is the HTTP client to use; nil means a private keep-alive
	// client shared by all HTTPStores.
	Client *http.Client
}

var (
	httpClientOnce sync.Once
	httpClient     *http.Client
)

func (h *HTTPStore) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	httpClientOnce.Do(func() {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 16
		httpClient = &http.Client{Transport: t}
	})
	return httpClient
}

// Sync implements Store over HTTP.
func (h *HTTPStore) Sync(ctx context.Context, scope Scope, node string, pushes []Push) ([]ecache.PathStat, error) {
	body, err := json.Marshal(syncWire{Scope: scope, Node: node, Pushes: pushes})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.URL, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("ecachesync: store returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out syncWire
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&out); err != nil {
		return nil, fmt.Errorf("ecachesync: decoding store response: %w", err)
	}
	return out.Paths, nil
}
