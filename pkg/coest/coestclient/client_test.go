package coestclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/pkg/coest/coestapi"
)

// envelopeServer answers every request with one fixed error envelope.
func envelopeServer(status int, code, msg string, retryMS int) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if retryMS > 0 {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(coestapi.ErrorResponse{
			Version: coestapi.Version,
			Error:   coestapi.ErrorInfo{Code: code, Message: msg, RetryAfterMS: retryMS, Shard: "a"},
		})
	}))
}

// TestTypedErrors: each wire code maps to its sentinel, and the full
// envelope stays reachable through errors.As.
func TestTypedErrors(t *testing.T) {
	cases := []struct {
		status   int
		code     string
		sentinel error
	}{
		{http.StatusTooManyRequests, coestapi.CodeOverloaded, ErrOverloaded},
		{http.StatusServiceUnavailable, coestapi.CodeDraining, ErrUnavailable},
		{http.StatusGatewayTimeout, coestapi.CodeDeadlineExceeded, ErrDeadline},
		{http.StatusBadRequest, coestapi.CodeBadRequest, ErrBadRequest},
		{http.StatusBadRequest, coestapi.CodeUnsupportedVersion, ErrVersion},
		{http.StatusNotFound, coestapi.CodeNotFound, ErrNotFound},
		{http.StatusInternalServerError, coestapi.CodeInternal, ErrUnavailable},
	}
	for _, tc := range cases {
		srv := envelopeServer(tc.status, tc.code, "nope", 1000)
		cli := New(srv.URL)
		_, err := cli.Estimate(context.Background(), coestapi.Request{Packets: 2})
		srv.Close()
		if err == nil {
			t.Fatalf("code %s: no error", tc.code)
		}
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("code %s: %v does not match sentinel %v", tc.code, err, tc.sentinel)
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("code %s: %v is not an *APIError", tc.code, err)
		}
		if apiErr.Code != tc.code || apiErr.Status != tc.status || apiErr.Shard != "a" {
			t.Errorf("code %s: envelope %+v", tc.code, apiErr)
		}
		if tc.code == coestapi.CodeOverloaded && apiErr.RetryAfter != time.Second {
			t.Errorf("RetryAfter = %v, want 1s", apiErr.RetryAfter)
		}
	}
}

// TestPlainTextErrorTolerated: a proxy-style bare text error still becomes
// a typed APIError via the status-code mapping.
func TestPlainTextErrorTolerated(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer srv.Close()
	_, err := New(srv.URL).Estimate(context.Background(), coestapi.Request{})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != coestapi.CodeUnavailable {
		t.Fatalf("envelope %+v", apiErr)
	}
}

// TestVersionFilledAndEchoed: the client stamps the current version on
// requests that carry none.
func TestVersionFilledAndEchoed(t *testing.T) {
	var gotVersion string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req coestapi.Request
		_ = json.NewDecoder(r.Body).Decode(&req)
		gotVersion = req.Version
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&coestapi.Response{Version: coestapi.Version})
	}))
	defer srv.Close()
	if _, err := New(srv.URL).Estimate(context.Background(), coestapi.Request{}); err != nil {
		t.Fatal(err)
	}
	if gotVersion != coestapi.Version {
		t.Fatalf("request version %q, want %q", gotVersion, coestapi.Version)
	}
}

// TestTraceHeaderAlwaysPresent: every request carries a trace id so failed
// requests are findable in the server's debug ring.
func TestTraceHeaderAlwaysPresent(t *testing.T) {
	var gotTrace string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTrace = r.Header.Get(coestapi.TraceHeader)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&coestapi.Response{Version: coestapi.Version})
	}))
	defer srv.Close()
	if _, err := New(srv.URL).Estimate(context.Background(), coestapi.Request{}); err != nil {
		t.Fatal(err)
	}
	if len(gotTrace) != 32 {
		t.Fatalf("trace header %q, want 32 hex digits", gotTrace)
	}
}

// TestClientDeadline: a request-level deadline bounds a hung connection.
func TestClientDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(srv.URL).Estimate(ctx, coestapi.Request{})
	if err == nil {
		t.Fatal("hung request returned")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not bound the hang")
	}
}

// TestReady: the readiness probe distinguishes routable from draining.
func TestReady(t *testing.T) {
	ready := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if ready {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()
	cli := New(srv.URL)
	if err := cli.Ready(context.Background()); err != nil {
		t.Fatalf("ready: %v", err)
	}
	ready = false
	if err := cli.Ready(context.Background()); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("unready: %v", err)
	}
}
