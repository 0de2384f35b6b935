// Package serve implements rlserve, the long-running checking service:
// an HTTP/JSON front end over the Section 4 decision procedures with
// per-request cooperative cancellation, a structural-hash keyed LRU
// cache of pipeline artifacts and reports, a bounded worker pool with
// queue-depth admission control, and graceful drain. See
// docs/SERVICE.md for the wire protocol and operational model.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"relive/internal/core"
	"relive/internal/obs"
	"relive/internal/serve/cache"
	"relive/internal/store"
	"relive/internal/ts"
)

// Config tunes a Server. The zero value is usable: every field has a
// serving-appropriate default.
type Config struct {
	// Workers bounds the number of checks running concurrently; <= 0
	// means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker slot beyond the running ones; past it the server sheds load
	// with 429 + Retry-After. <= 0 means 64.
	QueueDepth int
	// DefaultTimeout caps a check's wall time when the request does not
	// set timeout_ms; 0 means 60s.
	DefaultTimeout time.Duration
	// SystemEntries, PipelineEntries, and ReportEntries are the LRU
	// capacities for parsed systems (with their trimmed-system /
	// behavior-automaton cells), per-(system, property) artifact sets,
	// and marshaled reports; <= 0 means 256, 1024, and 4096.
	// ReportEntries also bounds the request-bytes index in front of the
	// report LRU.
	SystemEntries   int
	PipelineEntries int
	ReportEntries   int
	// Trace receives every counter and gauge and backs /metrics; nil
	// means a fresh private Trace. Spans go to per-request traces (see
	// FlightEntries), not here, so the process-wide recorder stays
	// bounded under sustained traffic.
	Trace *obs.Trace
	// FlightEntries bounds the flight recorder's ring of completed
	// checks behind /debug/checks; 0 means 256, < 0 disables request
	// tracing and the flight recorder entirely (spans then go to Trace,
	// and the hot path does no per-request allocation).
	FlightEntries int
	// FlightTraces bounds how many full span trees of slow checks are
	// retained for /debug/checks/{traceID}; 0 means 64.
	FlightTraces int
	// SlowThreshold marks a check slow — its full span tree is retained
	// by the flight recorder; 0 means 250ms.
	SlowThreshold time.Duration
	// Logger receives one JSON-lines (or text, per its handler) record
	// per request; nil disables request logging.
	Logger *slog.Logger
	// Store is the persistent content-addressed artifact store layered
	// under the LRUs: completed reports (and canonical system texts plus
	// compiled-pipeline metadata) are written through to it, and a
	// report-LRU miss probes it before admitting the check, so replicas
	// sharing a volume — and restarts of one replica — reuse each
	// other's completed work. nil disables persistence entirely.
	Store *store.Store
}

// Server is the checking service. Create with New, mount Handler, and
// call Drain before exit. Safe for concurrent use.
type Server struct {
	cfg     Config
	tr      *obs.Trace
	log     *slog.Logger
	metrics *serverMetrics
	flight  *flightRecorder // nil when FlightEntries < 0
	started time.Time

	slots    chan struct{} // worker-slot semaphore, capacity cfg.Workers
	admitted atomic.Int64  // running + queued requests
	capacity int64         // Workers + QueueDepth
	draining atomic.Bool
	inflight sync.WaitGroup

	systems   *cache.LRU[*core.SystemCells]
	pipelines *cache.LRU[*core.PipelineCells]
	reports   *cache.LRU[[]byte]
	// bodies is the request-bytes index: bodyKey(endpoint, body) → the
	// report key that endpoint's key step computed from those bytes. It
	// holds only bodies whose report was served or cached, so none of
	// them asked for no_cache or got a 400.
	bodies *cache.LRU[string]
	store  *store.Store // nil when persistence is off

	mux *http.ServeMux
}

// New returns a ready Server.
func New(cfg Config) *Server {
	orDefault(&cfg.Workers, runtime.GOMAXPROCS(0))
	orDefault(&cfg.QueueDepth, 64)
	orDefault(&cfg.DefaultTimeout, 60*time.Second)
	orDefault(&cfg.SystemEntries, 256)
	orDefault(&cfg.PipelineEntries, 1024)
	orDefault(&cfg.ReportEntries, 4096)
	if cfg.FlightEntries == 0 { // negative disables the flight recorder
		cfg.FlightEntries = 256
	}
	orDefault(&cfg.FlightTraces, 64)
	orDefault(&cfg.SlowThreshold, 250*time.Millisecond)
	tr := cfg.Trace
	if tr == nil {
		tr = obs.NewTrace()
	}
	s := &Server{
		cfg:       cfg,
		tr:        tr,
		log:       cfg.Logger,
		metrics:   newServerMetrics(),
		started:   time.Now(),
		slots:     make(chan struct{}, cfg.Workers),
		capacity:  int64(cfg.Workers + cfg.QueueDepth),
		systems:   cache.New[*core.SystemCells](cfg.SystemEntries),
		pipelines: cache.New[*core.PipelineCells](cfg.PipelineEntries),
		reports:   cache.New[[]byte](cfg.ReportEntries),
		bodies:    cache.New[string](cfg.ReportEntries),
		store:     cfg.Store,
	}
	if cfg.FlightEntries > 0 {
		s.flight = newFlightRecorder(cfg.FlightEntries, cfg.FlightTraces, cfg.SlowThreshold)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// orDefault replaces a non-positive setting with its default.
func orDefault[T int | float64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Handler returns the service's HTTP handler (also used directly by the
// httptest harness).
func (s *Server) Handler() http.Handler { return s.mux }

// FlightRecords returns the flight recorder's completed checks, most
// recent first (nil when the recorder is disabled) — the programmatic
// view of GET /debug/checks.
func (s *Server) FlightRecords() []CheckRecord { return s.flight.recent() }

// Drain puts the server into draining mode — new check requests are
// rejected with 503 and /healthz reports "draining" — and waits until
// every in-flight check has finished or ctx expires. It does not cancel
// running checks; pair it with an http.Server.Shutdown deadline (as
// cmd/rlserve does) when a hard stop is needed.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit reserves a worker slot, blocking in the bounded queue. It
// returns a release function on success; otherwise the HTTP status the
// request must be rejected with (429 when the queue is full, 503 when
// draining) or a context error when the caller gave up while queued.
func (s *Server) admit(ctx context.Context) (func(), int, error) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, nil
	}
	if n := s.admitted.Add(1); n > s.capacity {
		s.admitted.Add(-1)
		obs.Count(s.tr, "serve.shed", 1)
		return nil, http.StatusTooManyRequests, nil
	}
	obs.Gauge(s.tr, "serve.queued", s.admitted.Load())
	waitStart := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.admitted.Add(-1)
		return nil, 0, ctx.Err()
	}
	if ri := reqFrom(ctx); ri != nil {
		ri.queueWait = time.Since(waitStart)
	}
	obs.Gauge(s.tr, "serve.inflight", int64(len(s.slots)))
	release := func() {
		<-s.slots
		s.admitted.Add(-1)
		obs.Gauge(s.tr, "serve.inflight", int64(len(s.slots)))
		obs.Gauge(s.tr, "serve.queued", s.admitted.Load())
	}
	return release, 0, nil
}

// Artifact kinds in the persistent store. Reports are the hot artifact
// — a store hit skips the whole pipeline; system and pipeline artifacts
// are the canonical text and compiled-pipeline metadata keyed by the
// same structural hashes, so an operator (or a future pre-warmer) can
// see exactly which work a warm volume holds.
const (
	storeKindReport   = "report"
	storeKindSystem   = "system"
	storeKindPipeline = "pipeline"
)

// cachedReport probes the report LRU, then the persistent store, for a
// completed report, and names the cache path of a hit. The store read is
// timed into relive_store_read_seconds, and a store hit refills the LRU
// so the next identical request never touches disk.
func (s *Server) cachedReport(rkey string) ([]byte, string, bool) {
	if body, ok := s.reports.Get(rkey); ok {
		obs.Count(s.tr, "serve.cache.report_hits", 1)
		return body, cachePathReportHit, true
	}
	if s.store == nil {
		return nil, "", false
	}
	start := time.Now()
	body, ok := s.store.Get(storeKindReport, rkey)
	s.metrics.storeRead.Observe(time.Since(start).Nanoseconds())
	if !ok {
		return nil, "", false
	}
	obs.Count(s.tr, "serve.store.report_hits", 1)
	s.reports.Add(rkey, body)
	return body, cachePathStoreHit, true
}

// storePut persists one artifact, counting (not surfacing) failures: a
// full disk or lost volume must never fail the check whose answer is
// already computed.
func (s *Server) storePut(kind, key string, payload []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(kind, key, payload); err != nil {
		obs.Count(s.tr, "serve.store.put_errors", 1)
	}
}

// systemCells returns the cached single-flight artifact handle of a
// canonicalized system. The cached system is re-parsed from the
// canonical rendering, so its symbol numbering depends only on the key:
// artifacts built against it are interchangeable no matter how later
// requests spell the system.
func (s *Server) systemCells(cs *canonSystem) *core.SystemCells {
	sc, hit := s.systems.GetOrAdd(cs.key, func() *core.SystemCells {
		csys, err := ts.ParseString(cs.canon)
		if err != nil {
			// Canonical text always round-trips; fall back defensively to
			// the request's own spelling, which parsed at key time.
			csys, _ = ts.ParseString(cs.text)
		}
		return core.NewSystemCells(csys)
	})
	if hit {
		obs.Count(s.tr, "serve.cache.system_hits", 1)
	} else {
		s.storePut(storeKindSystem, cs.key, []byte(cs.canon))
	}
	return sc
}

// pipelineFor binds a property to the cached system and returns the
// cached artifact set for (system, property), creating one that shares
// the system's trimmed-behavior cells on a miss; hit reports whether the
// set was already cached (the flight recorder's pipeline-hit/miss
// cache-path classification).
func (s *Server) pipelineFor(sysKey string, sc *core.SystemCells, p property) (*core.PipelineCells, bool, error) {
	prop, err := p.bind(sc)
	if err != nil {
		return nil, false, err
	}
	key := hashKey("pipe", sysKey, p.part)
	pc, hit := s.pipelines.GetOrAdd(key, func() *core.PipelineCells {
		return core.NewPipelineCellsSharing(sc, prop)
	})
	if hit {
		obs.Count(s.tr, "serve.cache.pipeline_hits", 1)
	} else if s.store != nil {
		meta, err := json.Marshal(map[string]string{"system": sysKey, "property": p.part})
		if err == nil {
			s.storePut(storeKindPipeline, key, meta)
		}
	}
	return pc, hit, nil
}

// isContextError reports whether err is (or wraps) a cancellation or
// deadline error — the service's boundary between "the check was
// stopped" and "the check failed".
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
