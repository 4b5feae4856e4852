// Package coestclient is the Go client of the coest estimation service —
// the one HTTP binding shared by the coest CLI, the fleet router and tests.
// It speaks the versioned wire contract of pkg/coest/coestapi against a
// coestd daemon (or a coest-router front), reusing connections across
// requests, enforcing per-request deadlines, propagating trace headers from
// the caller's context, and turning the service's error envelopes into
// typed errors callers can branch on with errors.Is.
package coestclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/pkg/coest/coestapi"
)

// Sentinel errors mapped from wire error codes; match with errors.Is.
var (
	// ErrOverloaded: the service shed the request (429) — every admission
	// slot (in-flight plus queued) of the design's shard was taken. Retry
	// after APIError.RetryAfter.
	ErrOverloaded = errors.New("coestclient: service overloaded")
	// ErrUnavailable: the service is draining, unreachable, or the request
	// was canceled server-side.
	ErrUnavailable = errors.New("coestclient: service unavailable")
	// ErrDeadline: the per-request deadline elapsed before the estimation
	// finished.
	ErrDeadline = errors.New("coestclient: deadline exceeded")
	// ErrBadRequest: the service rejected the request shape.
	ErrBadRequest = errors.New("coestclient: bad request")
	// ErrVersion: the service does not speak the request's API major.
	ErrVersion = errors.New("coestclient: unsupported API version")
	// ErrNotFound: no warm session (snapshot of a cold design) or no such
	// endpoint.
	ErrNotFound = errors.New("coestclient: not found")
)

// APIError is a non-2xx service answer: the decoded wire error envelope
// plus its HTTP status. It unwraps to the matching sentinel error, so both
// errors.Is(err, ErrOverloaded) and errors.As(err, &apiErr) work.
type APIError struct {
	Status     int           // HTTP status code
	Code       string        // coestapi.Code* machine-readable cause
	Message    string        // human-readable detail
	RetryAfter time.Duration // backoff hint on overload/draining, 0 if none
	Shard      string        // answering fleet node, "" standalone
	TraceID    string        // request trace, "" when tracing is off
}

func (e *APIError) Error() string {
	b := fmt.Sprintf("coestclient: %s (http %d)", e.Code, e.Status)
	if e.Message != "" {
		b += ": " + e.Message
	}
	if e.Shard != "" {
		b += " [shard " + e.Shard + "]"
	}
	return b
}

// Unwrap maps the wire code onto the sentinel hierarchy.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case coestapi.CodeOverloaded:
		return ErrOverloaded
	case coestapi.CodeDraining, coestapi.CodeUnavailable, coestapi.CodeCanceled:
		return ErrUnavailable
	case coestapi.CodeDeadlineExceeded:
		return ErrDeadline
	case coestapi.CodeUnsupportedVersion:
		return ErrVersion
	case coestapi.CodeNotFound:
		return ErrNotFound
	case coestapi.CodeBadRequest, coestapi.CodeMethodNotAllowed:
		return ErrBadRequest
	default:
		if e.Status >= 500 {
			return ErrUnavailable
		}
		return ErrBadRequest
	}
}

// Client is a connection-reusing client bound to one service base URL. The
// zero value is not usable; construct with New. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (custom transport,
// test servers). The default client keeps idle connections per host so
// repeat estimations ride one TCP connection.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRequireFull does nothing: every answer the service gives is the
// estimate the request asked for, or an error.
//
// Deprecated: drop the option; it has no effect.
func WithRequireFull() Option { return func(*Client) {} }

// New returns a client for the service at base (e.g. http://localhost:8350).
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimSuffix(base, "/"),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        32,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the client's service base URL.
func (c *Client) Base() string { return c.base }

// withDeadline bounds ctx by the request's DeadlineMS (plus transit grace)
// when the caller has not already set a tighter one — the client-side half
// of the per-request deadline, so a hung connection cannot outlive the
// server-side bound it asked for.
func withDeadline(ctx context.Context, deadlineMS int) (context.Context, context.CancelFunc) {
	if deadlineMS <= 0 {
		return ctx, func() {}
	}
	d := time.Duration(deadlineMS)*time.Millisecond + 2*time.Second
	if existing, ok := ctx.Deadline(); ok && time.Until(existing) <= d {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// do posts body to path and decodes either the success payload into out or
// the error envelope into an *APIError. Trace headers propagate from ctx:
// a caller already inside a traced span forwards its trace id and span so
// the service's trace grafts under it; otherwise a fresh id is minted so
// even a failed request is findable in the service's debug ring.
func (c *Client) do(ctx context.Context, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	if scope := telemetry.SpanScopeFrom(ctx); !scope.Trace().IsZero() {
		req.Header.Set(coestapi.TraceHeader, scope.Trace().String())
		if span := scope.Context().Span; span != 0 {
			req.Header.Set(coestapi.ParentSpanHeader, fmt.Sprintf("%x", span))
		}
	} else {
		req.Header.Set(coestapi.TraceHeader, telemetry.NewTraceID().String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %v", ErrDeadline, err)
		}
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx answer into an *APIError, tolerating plain
// text bodies from proxies by synthesizing the code from the status.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	apiErr := &APIError{Status: resp.StatusCode, TraceID: resp.Header.Get(coestapi.TraceHeader)}
	var env coestapi.ErrorResponse
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
		apiErr.Shard = env.Error.Shard
		apiErr.RetryAfter = time.Duration(env.Error.RetryAfterMS) * time.Millisecond
		if env.TraceID != "" {
			apiErr.TraceID = env.TraceID
		}
		return apiErr
	}
	apiErr.Code = coestapi.CodeForStatus(resp.StatusCode)
	apiErr.Message = strings.TrimSpace(string(body))
	return apiErr
}

// Estimate runs one estimation request. The request's Version is filled in
// when empty.
func (c *Client) Estimate(ctx context.Context, req coestapi.Request) (*coestapi.Response, error) {
	if req.Version == "" {
		req.Version = coestapi.Version
	}
	ctx, cancel := withDeadline(ctx, req.DeadlineMS)
	defer cancel()
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	var resp coestapi.Response
	if err := c.do(ctx, "/estimate", "application/json", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Snapshot fetches the binary snapshot of one warm session — the bytes
// Restore (on any fleet node) accepts. ErrNotFound when the design's
// session is cold.
func (c *Client) Snapshot(ctx context.Context, system string, packets int) ([]byte, error) {
	body, err := json.Marshal(&coestapi.SnapshotRequest{Version: coestapi.Version, System: system, Packets: packets})
	if err != nil {
		return nil, err
	}
	var blob []byte
	if err := c.do(ctx, "/snapshot", "application/json", body, &blob); err != nil {
		return nil, err
	}
	return blob, nil
}

// Restore installs a session snapshot on the service, making the design
// warm without a compile.
func (c *Client) Restore(ctx context.Context, snapshot []byte) (*coestapi.RestoreResponse, error) {
	var resp coestapi.RestoreResponse
	if err := c.do(ctx, "/restore", "application/octet-stream", snapshot, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ready probes GET /readyz: nil when the service is routable, ErrUnavailable
// (wrapped) otherwise.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: readyz returned %d", ErrUnavailable, resp.StatusCode)
	}
	return nil
}
