package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"relive/internal/core"
	"relive/internal/obs"
)

// TraceHeader carries the W3C trace-context parent on requests and
// responses. An incoming traceparent adopts the caller's trace ID;
// otherwise the server mints one. The response always echoes the trace
// so a client can fetch /debug/checks/{traceID} afterwards.
const TraceHeader = "traceparent"

// reqInfo is the per-request observability state threaded through the
// handler via the request context: the trace identity, the per-request
// span tree (nil when the flight recorder is disabled), and the fields
// the handler fills in as the request progresses. Handlers run
// synchronously inside the traced wrapper, so plain fields suffice.
type reqInfo struct {
	endpoint string
	check    bool // a check endpoint (admitted, recorded in flight ring)
	traceID  string
	start    time.Time
	trace    *obs.Trace   // request-scoped span tree, nil when disabled
	rec      obs.Recorder // tee of trace + server metrics, or the metrics trace alone

	queueWait time.Duration
	cachePath string // report-hit | pipeline-hit | miss
	verdict   string // ok | cancelled | timeout | error | shed | draining | bad_request
	hash      string // structural report key
	status    int
}

type reqInfoKey struct{}

// reqFrom returns the request's observability state, or nil outside the
// traced wrapper (direct handler tests).
func reqFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// recorder returns the recorder check work should report to: the
// request-scoped tee when available, the server trace otherwise.
func (s *Server) recorder(ctx context.Context) obs.Recorder {
	if ri := reqFrom(ctx); ri != nil {
		return ri.rec
	}
	return s.tr
}

// traced wraps a handler with the request-scoped observability
// pipeline: trace-ID adoption/minting, the per-request span tree,
// latency histograms, the flight recorder, and JSON-lines logging.
// check marks the load-bearing endpoints whose completions land in the
// flight ring.
func (s *Server) traced(endpoint string, check bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ri := &reqInfo{
			endpoint: endpoint,
			check:    check,
			start:    time.Now(),
			rec:      s.tr,
		}
		tid, ok := obs.ParseTraceparent(r.Header.Get(TraceHeader))
		if !ok {
			tid = obs.NewTraceID()
		}
		ri.traceID = tid
		if check && s.flight != nil {
			ri.trace = obs.NewTrace()
			ri.trace.SetTraceID(tid)
			ri.rec = obs.TeeMetrics(ri.trace, s.tr)
		}
		w.Header().Set(TraceHeader, obs.Traceparent(tid))

		ctx := context.WithValue(r.Context(), reqInfoKey{}, ri)
		sw := &statusWriter{ResponseWriter: w}
		if check {
			s.flight.begin(tid, endpoint, ri.start)
		}

		h(sw, r.WithContext(ctx))

		ri.status = sw.status()
		dur := time.Since(ri.start)
		phases := phaseDurations(ri.trace)
		s.observeRequest(ri, dur, phases)
		if check {
			s.flight.end(CheckRecord{
				TraceID:     ri.traceID,
				Endpoint:    endpoint,
				Hash:        ri.hash,
				Verdict:     ri.verdict,
				Status:      ri.status,
				CachePath:   ri.cachePath,
				StartUnixNS: ri.start.UnixNano(),
				DurationNS:  dur.Nanoseconds(),
				QueueWaitNS: ri.queueWait.Nanoseconds(),
				PhaseNS:     phases,
			}, ri.trace)
		}
		s.logRequest(ri, dur)
	}
}

// phaseDurations aggregates a request trace's span durations by
// pipeline phase. Nil (tracing disabled) or span-free traces yield nil.
func phaseDurations(tr *obs.Trace) map[string]int64 {
	if tr == nil {
		return nil
	}
	var phases map[string]int64
	for _, sp := range tr.Spans() {
		phase := core.PhaseOf(sp.Name)
		if phase == "" || sp.DurationNS < 0 {
			continue
		}
		if phases == nil {
			phases = make(map[string]int64, len(core.Phases))
		}
		phases[phase] += sp.DurationNS
	}
	return phases
}

// observeRequest feeds the latency histograms behind /metrics.
func (s *Server) observeRequest(ri *reqInfo, dur time.Duration, phases map[string]int64) {
	s.metrics.endpoint[ri.endpoint].Observe(dur.Nanoseconds())
	if ri.queueWait > 0 {
		s.metrics.queueWait.Observe(ri.queueWait.Nanoseconds())
	}
	if ri.cachePath != "" {
		s.metrics.cachePath[ri.cachePath].Observe(dur.Nanoseconds())
	}
	for phase, ns := range phases {
		s.metrics.phase[phase].Observe(ns)
	}
}

// logRequest emits one JSON-lines (or text, per the logger's handler)
// record per request. Check requests log at info; the ambient GET
// endpoints (healthz, metrics, debug) at debug, so a scraped server
// stays quiet at the default level.
func (s *Server) logRequest(ri *reqInfo, dur time.Duration) {
	if s.log == nil {
		return
	}
	level := slog.LevelInfo
	if !ri.check {
		level = slog.LevelDebug
	}
	attrs := []slog.Attr{
		slog.String("trace_id", ri.traceID),
		slog.String("endpoint", ri.endpoint),
		slog.Int("status", ri.status),
		slog.Duration("duration", dur),
	}
	if ri.verdict != "" {
		attrs = append(attrs, slog.String("verdict", ri.verdict))
	}
	if ri.cachePath != "" {
		attrs = append(attrs, slog.String("cache", ri.cachePath))
	}
	if ri.queueWait > 0 {
		attrs = append(attrs, slog.Duration("queue_wait", ri.queueWait))
	}
	if ri.hash != "" {
		attrs = append(attrs, slog.String("hash", ri.hash))
	}
	s.log.LogAttrs(context.Background(), level, "request", attrs...)
}

// statusWriter captures the response status for histograms, the flight
// ring, and logs. An unset status means the handler wrote the body
// without WriteHeader, i.e. 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
