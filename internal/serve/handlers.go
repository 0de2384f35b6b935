package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/obs"
	"relive/internal/store"
	"relive/internal/word"
)

// CacheHeader reports, on every check response, whether the body came
// from the report cache ("hit") or a fresh run ("miss"). It is a header
// rather than a body field so a cache hit is bit-identical to the cold
// response it replays.
const CacheHeader = "X-Relive-Cache"

// statusClientClosed is the (nginx-convention) status recorded when the
// client went away before the check finished; the connection is usually
// already dead when it is written.
const statusClientClosed = 499

// LivenessResponse is the body of /v1/check/liveness.
type LivenessResponse struct {
	Holds     bool     `json:"holds"`
	BadPrefix []string `json:"badPrefix,omitempty"`
}

// SafetyResponse is the body of /v1/check/safety.
type SafetyResponse struct {
	Holds         bool     `json:"holds"`
	Violation     []string `json:"violation,omitempty"`
	ViolationLoop []string `json:"violationLoop,omitempty"`
}

// SatisfiesResponse is the body of /v1/check/satisfies.
type SatisfiesResponse struct {
	Holds              bool     `json:"holds"`
	Counterexample     []string `json:"counterexample,omitempty"`
	CounterexampleLoop []string `json:"counterexampleLoop,omitempty"`
}

// PortfolioResponse is the body of /v1/check/portfolio; Reports follow
// the request's property order (LTLs first, then Omegas).
type PortfolioResponse struct {
	Reports []*core.Report `json:"reports"`
}

// AbstractionResponse is the body of /v1/check/abstraction.
type AbstractionResponse struct {
	Conclusion        string   `json:"conclusion"`
	AbstractHolds     bool     `json:"abstractHolds"`
	Simple            bool     `json:"simple"`
	ExtendedMaximal   bool     `json:"extendedMaximal"`
	AbstractStates    int      `json:"abstractStates"`
	AbstractBadPrefix []string `json:"abstractBadPrefix,omitempty"`
	SimplicityWitness []string `json:"simplicityWitness,omitempty"`
	Transformed       string   `json:"transformed,omitempty"`
}

// HealthResponse is the body of /healthz: serving state, worker-pool
// occupancy, the build identity (also printed by rlserve -version),
// and — when the persistent store is configured — its path, artifact
// count, and effectiveness counters, so an operator can see warm-cache
// state at a glance.
type HealthResponse struct {
	Status        string       `json:"status"` // "ok" or "draining"
	Inflight      int          `json:"inflight"`
	Admitted      int64        `json:"admitted"`
	Workers       int          `json:"workers"`
	QueueDepth    int          `json:"queue_depth"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Version       string       `json:"version"`
	GoVersion     string       `json:"go_version"`
	Store         *store.Stats `json:"store,omitempty"`
}

func (s *Server) routes() {
	for _, ep := range endpoints {
		s.mux.HandleFunc("POST /v1/check/"+ep.name, s.traced(ep.name, true, s.checkHandler(ep)))
	}
	s.mux.HandleFunc("GET /healthz", s.traced("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.traced("metrics", false, s.handleMetrics))
	s.mux.HandleFunc("GET /debug/checks", s.traced("debug", false, s.handleDebugChecks))
	s.mux.HandleFunc("GET /debug/checks/{trace}", s.traced("debug", false, s.handleDebugTrace))
}

// checkHandler serves one check endpoint: request-bytes index → decode
// and key → report-cache and store probe → bind → admission → bounded,
// cancellable run → cache fill. Cache hits are served without binding
// or a worker slot; a body indexed from an earlier request is answered
// without being decoded.
func (s *Server) checkHandler(ep endpoint) http.HandlerFunc {
	span := "serve." + ep.name
	return func(w http.ResponseWriter, r *http.Request) {
		obs.Count(s.tr, "serve.requests", 1)
		body, err := readBody(w, r)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request", err)
			return
		}
		ri := reqFrom(r.Context()) // traced installs it on every check route
		bkey := bodyKey(ep.name, body)
		if rkey, ok := s.bodies.Get(bkey); ok && s.replay(w, ri, rkey) {
			obs.Count(s.tr, "serve.cache.body_hits", 1)
			return
		}
		c, err := ep.key(body)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request", err)
			return
		}
		ri.hash = c.rkey
		if !c.noCache && s.replay(w, ri, c.rkey) {
			s.bodies.Add(bkey, c.rkey)
			return
		}
		path, run, err := c.bind(s, s.systemCells(c.sys))
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request", err)
			return
		}
		ri.cachePath = path
		release, status, aerr := s.admit(r.Context())
		if aerr != nil || status != 0 {
			s.writeAdmissionFailure(w, r, status, aerr)
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		defer release()

		// The check runs under the request's own context, so a client
		// disconnect cancels it, bounded by its own or the default timeout.
		timeout := s.cfg.DefaultTimeout
		if c.timeoutMS > 0 {
			timeout = time.Duration(c.timeoutMS) * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		rec := s.recorder(r.Context())
		sp := obs.StartSpan(rec, span)
		out, err := run(obs.ContextWithRecorder(ctx, rec), sp)
		sp.Tag("outcome", outcome(err)).End()
		if err != nil {
			s.writeCheckError(w, r, err)
			return
		}
		s.finish(w, r, c, bkey, out)
	}
}

// replay answers the request with the completed report under rkey, if
// the report LRU or the store holds one.
func (s *Server) replay(w http.ResponseWriter, ri *reqInfo, rkey string) bool {
	cached, path, ok := s.cachedReport(rkey)
	if !ok {
		return false
	}
	// A replayed report is a completed check that bypassed the run.
	ri.hash, ri.cachePath, ri.verdict = rkey, path, "ok"
	writeCached(w, cached, true)
	return true
}

// Cache-path labels: where a check's answer came from.
const (
	cachePathReportHit   = "report-hit"   // marshaled report replayed, no worker slot
	cachePathStoreHit    = "store-hit"    // report replayed from the persistent store
	cachePathPipelineHit = "pipeline-hit" // artifact cells reused, verdicts recomputed
	cachePathMiss        = "miss"         // full cold pipeline
)

func pipePath(hit bool) string {
	if hit {
		return cachePathPipelineHit
	}
	return cachePathMiss
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	build := Build()
	resp := HealthResponse{
		Status:        "ok",
		Inflight:      len(s.slots),
		Admitted:      s.admitted.Load(),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Version:       build.Version,
		GoVersion:     build.GoVersion,
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// finish marshals the check result, fills the report cache and the
// request-bytes index under bkey, and writes the response as a cache
// miss.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, c *call, bkey string, out any) {
	body, err := json.Marshal(out)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", err)
		return
	}
	body = append(body, '\n')
	if !c.noCache {
		s.reports.Add(c.rkey, body)
		s.bodies.Add(bkey, c.rkey)
	}
	obs.Count(s.tr, "serve.completed", 1)
	if ri := reqFrom(r.Context()); ri != nil {
		ri.verdict = "ok"
	}
	writeCached(w, body, false)
	// Write-through after the response: a store write never adds
	// latency to the check that produced the report. no_cache responses
	// are not persisted either — they exist to measure the cold path.
	if !c.noCache {
		s.storePut(storeKindReport, c.rkey, body)
	}
}

// outcome classifies a run's error for span tagging.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case isContextError(err):
		return "cancelled"
	}
	return "error"
}

// writeCheckError maps a failed check to a response: a client that went
// away gets 499 (and likely never sees it), a server-side deadline gets
// 504, anything else is an internal error. Context errors are counted
// separately from check failures — the load tests and the obs span
// "outcome" tags rely on the distinction.
func (s *Server) writeCheckError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case isContextError(err) && r.Context().Err() != nil:
		obs.Count(s.tr, "serve.cancelled", 1)
		s.writeError(w, r, statusClientClosed, "cancelled", err)
	case isContextError(err):
		obs.Count(s.tr, "serve.timeout", 1)
		s.writeError(w, r, http.StatusGatewayTimeout, "timeout", err)
	default:
		obs.Count(s.tr, "serve.errors", 1)
		s.writeError(w, r, http.StatusInternalServerError, "internal", err)
	}
}

// writeAdmissionFailure responds to a request that never got a worker
// slot: queue overflow (429 + Retry-After), draining (503), or the
// caller abandoning the queue (499).
func (s *Server) writeAdmissionFailure(w http.ResponseWriter, r *http.Request, status int, err error) {
	switch {
	case err != nil:
		obs.Count(s.tr, "serve.cancelled", 1)
		s.writeError(w, r, statusClientClosed, "cancelled", err)
	case status == http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, status, "overloaded", fmt.Errorf("queue full: %d checks admitted", s.capacity))
	default:
		s.writeError(w, r, status, "draining", fmt.Errorf("server is draining"))
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, kind string, err error) {
	if ri := reqFrom(r.Context()); ri != nil && ri.verdict == "" {
		ri.verdict = verdictOfKind(kind)
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind})
}

// writeJSON writes v as a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// verdictOfKind maps a wire error kind to the flight recorder's verdict
// vocabulary (ok | cancelled | timeout | error | shed | draining |
// bad_request).
func verdictOfKind(kind string) string {
	switch kind {
	case "internal":
		return "error"
	case "overloaded":
		return "shed"
	}
	return kind
}

func writeCached(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set(CacheHeader, "hit")
	} else {
		w.Header().Set(CacheHeader, "miss")
	}
	w.Write(body)
}

// readBody reads a request body under the MaxBodyBytes cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return body, nil
}

// names renders a word's symbols as action names.
func names(ab *alphabet.Alphabet, w word.Word) []string {
	if len(w) == 0 {
		return nil
	}
	out := make([]string, len(w))
	for i, sym := range w {
		out[i] = ab.Name(sym)
	}
	return out
}
