package serve

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// accessRecord is one JSONL access-log line. Trace carries the request's
// trace id (the X-Coest-Trace-Id value), so a log line joins against
// /debug/requests and any downstream trace store.
type accessRecord struct {
	Time   string  `json:"time"` // RFC3339Nano
	Trace  string  `json:"trace,omitempty"`
	Method string  `json:"method"`
	Path   string  `json:"path"`
	Status int     `json:"status"`
	DurMS  float64 `json:"dur_ms"`
	System string  `json:"system,omitempty"`
	Points int     `json:"points,omitempty"`
	Warm   bool    `json:"warm,omitempty"`
	Error  string  `json:"error,omitempty"`
	Slow   bool    `json:"slow,omitempty"`
}

// accessLogger serializes JSONL access lines onto one writer. Requests
// finish on concurrent handler goroutines; the mutex keeps lines whole.
type accessLogger struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newAccessLogger(w io.Writer) *accessLogger {
	if w == nil {
		return nil
	}
	return &accessLogger{enc: json.NewEncoder(w)}
}

// log writes one line; a nil logger drops it.
func (l *accessLogger) log(rec accessRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	_ = l.enc.Encode(rec) // log loss must never fail a request
	l.mu.Unlock()
}

func nowRFC3339(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
