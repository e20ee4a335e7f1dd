package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// statusRecorder captures the response code and size for the request
// log and the HTTP metrics.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// logEntry is one structured request-log line; the field names are
// the contract operators' log pipelines parse.
//
//simvet:wire
type logEntry struct {
	Time       string  `json:"time"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	DurationMs float64 `json:"duration_ms"`
	Bytes      int64   `json:"bytes"`
	Remote     string  `json:"remote"`
}

// withLogging wraps the mux with response-class metrics and, when a
// log writer is configured, one JSON line per request. Lines are
// serialized so concurrent requests cannot interleave.
func (s *Server) withLogging(next http.Handler) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.reg.countHTTP(rec.code)
		if s.cfg.LogWriter == nil {
			return
		}
		line, err := json.Marshal(logEntry{
			Time:       start.UTC().Format(time.RFC3339Nano),
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     rec.code,
			DurationMs: float64(time.Since(start).Microseconds()) / 1000,
			Bytes:      rec.bytes,
			Remote:     r.RemoteAddr,
		})
		if err != nil {
			return
		}
		mu.Lock()
		s.cfg.LogWriter.Write(append(line, '\n'))
		mu.Unlock()
	})
}
