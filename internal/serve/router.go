package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relive/internal/obs"
)

// Router is rlserve's shard-routing mode: a stateless front end that
// spreads check requests over a set of rlserve backends by the
// structural hash of the request's system, so each backend's pipeline
// and report caches stay hot for its shard of the keyspace. Placement
// is a consistent-hash ring (virtual nodes) with the bounded-load
// variant: a backend already carrying more than LoadFactor times its
// fair share of in-flight proxies is skipped for the next ring
// candidate, so one expensive system cannot queue the world behind it.
//
// The router also coalesces: concurrent requests with the same report
// key (the exact key the backends cache reports under) collapse into
// one proxied check whose answer every waiter shares. The leader's
// proxy runs on a detached context so one impatient client cannot
// cancel the check for the others; only when the last waiter leaves is
// the in-flight proxy abandoned. Error answers are shared with the
// waiters of the moment but never cached, so a transient failure is
// retryable immediately.
//
// Answers are bit-identical to single-node rlserve: the router never
// rewrites a backend response body, and its request keys come from the
// backends' own endpoint table, so router-level coalescing can only
// merge requests a single backend would have merged in its report cache
// anyway.

// RouterConfig tunes a Router. Backends is required; everything else
// has a serving-appropriate default.
type RouterConfig struct {
	// Backends are the rlserve base URLs ("http://host:port") to route
	// over. At least one is required.
	Backends []string
	// VNodes is the number of ring points per backend; more points give
	// a smoother key split. <= 0 means 128.
	VNodes int
	// LoadFactor is the bounded-load c: a backend is skipped while its
	// in-flight proxies exceed ceil(c * (total+1) / healthy). <= 1
	// means 1.25.
	LoadFactor float64
	// HealthInterval is the period of the background /healthz probe;
	// <= 0 means 2s. HealthTimeout bounds one probe; <= 0 means 1s.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// ProxyTimeout bounds a proxied check that did not ask for its own
	// timeout_ms; <= 0 means 90s (above the backends' 60s default, so
	// the backend's own timeout verdict arrives first).
	ProxyTimeout time.Duration
	// Client overrides the HTTP client used for proxying and probing;
	// nil means a pooled default.
	Client *http.Client
	// Logger receives router lifecycle events (backend health flips);
	// nil disables logging.
	Logger *slog.Logger
}

// routeBackend is one backend's routing state: health (flipped by
// probes and connection errors), in-flight proxies (the bounded-load
// signal), and per-backend counters for /metrics.
type routeBackend struct {
	url      string
	healthy  atomic.Bool
	inflight atomic.Int64
	proxied  atomic.Int64
	errs     atomic.Int64
	latency  *obs.Histogram

	mu      sync.Mutex
	lastErr string
}

func (b *routeBackend) noteError(err error) {
	b.errs.Add(1)
	b.mu.Lock()
	b.lastErr = err.Error()
	b.mu.Unlock()
	b.healthy.Store(false)
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	h uint64
	b *routeBackend
}

// flightCell is one coalesced in-flight proxy: the leader publishes
// its result and closes done; followers wait on done, and the last
// waiter to leave cancels the detached proxy context.
type flightCell struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	res     *proxyResult
	err     error
}

// proxyResult is the slice of a backend response the router replays to
// every waiter: status, body, and the relayed headers.
type proxyResult struct {
	status  int
	body    []byte
	header  http.Header // the backend's response header
	backend string
}

// relayedHeaders are the backend response headers that carry meaning
// across the proxy.
var relayedHeaders = []string{"Content-Type", CacheHeader, "Retry-After"}

// Router routes check requests over a set of rlserve backends. Create
// with NewRouter, mount Handler, and Close on shutdown.
type Router struct {
	cfg      RouterConfig
	client   *http.Client
	backends []*routeBackend
	points   []ringPoint
	mux      *http.ServeMux
	log      *slog.Logger

	mu     sync.Mutex
	flight map[string]*flightCell

	requests    atomic.Int64
	coalesced   atomic.Int64
	failovers   atomic.Int64
	badRequests atomic.Int64
	unavailable atomic.Int64

	stop    chan struct{}
	stopped sync.Once
	probing sync.WaitGroup
}

// CoalescedHeader marks a response that was shared from another
// request's in-flight proxy rather than proxied for this request.
const CoalescedHeader = "X-Relive-Coalesced"

// BackendHeader names the backend whose response this is.
const BackendHeader = "X-Relive-Backend"

// NewRouter builds a router over the given backends and starts its
// health prober.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	orDefault(&cfg.VNodes, 128)
	if cfg.LoadFactor <= 1 {
		cfg.LoadFactor = 1.25
	}
	orDefault(&cfg.HealthInterval, 2*time.Second)
	orDefault(&cfg.HealthTimeout, time.Second)
	orDefault(&cfg.ProxyTimeout, 90*time.Second)
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	rt := &Router{
		cfg:    cfg,
		client: client,
		log:    cfg.Logger,
		flight: make(map[string]*flightCell),
		stop:   make(chan struct{}),
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		url := strings.TrimRight(strings.TrimSpace(raw), "/")
		if url == "" || seen[url] {
			continue
		}
		seen[url] = true
		b := &routeBackend{url: url, latency: &obs.Histogram{}}
		b.healthy.Store(true) // optimistic: serve before the first probe lands
		rt.backends = append(rt.backends, b)
	}
	if len(rt.backends) == 0 {
		return nil, errors.New("router: no usable backend URLs")
	}
	rt.points = make([]ringPoint, 0, len(rt.backends)*cfg.VNodes)
	for _, b := range rt.backends {
		for v := 0; v < cfg.VNodes; v++ {
			rt.points = append(rt.points, ringPoint{h: pointHash(fmt.Sprintf("%s|%d", b.url, v)), b: b})
		}
	}
	sort.Slice(rt.points, func(i, j int) bool { return rt.points[i].h < rt.points[j].h })

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/check/{endpoint}", rt.handleCheck)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)

	rt.probing.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health prober. In-flight proxies finish on their own
// contexts.
func (rt *Router) Close() {
	rt.stopped.Do(func() { close(rt.stop) })
	rt.probing.Wait()
}

// pointHash maps a string to a position on the ring.
func pointHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// pick returns the backends to try for a key, in order: healthy
// backends under the bounded-load cap in ring order from the key's
// point, then healthy-but-loaded ones, then unhealthy ones as a last
// resort (the probe may simply not have noticed a recovery yet).
func (rt *Router) pick(key string) []*routeBackend {
	h := pointHash(key)
	i := sort.Search(len(rt.points), func(j int) bool { return rt.points[j].h >= h })
	ringOrder := make([]*routeBackend, 0, len(rt.backends))
	seen := make(map[*routeBackend]bool, len(rt.backends))
	for n := 0; n < len(rt.points) && len(ringOrder) < len(rt.backends); n++ {
		b := rt.points[(i+n)%len(rt.points)].b
		if !seen[b] {
			seen[b] = true
			ringOrder = append(ringOrder, b)
		}
	}

	var total, healthy int64
	for _, b := range rt.backends {
		total += b.inflight.Load()
		if b.healthy.Load() {
			healthy++
		}
	}
	if healthy == 0 {
		return ringOrder
	}
	// Bounded load: capacity = ceil(c * (total+1) / healthy).
	capacity := int64(rt.cfg.LoadFactor*float64(total+1)/float64(healthy)) + 1

	var under, over, down []*routeBackend
	for _, b := range ringOrder {
		switch {
		case !b.healthy.Load():
			down = append(down, b)
		case b.inflight.Load()+1 <= capacity:
			under = append(under, b)
		default:
			over = append(over, b)
		}
	}
	return append(append(under, over...), down...)
}

// routeKeyFor decodes and keys a request with the backends' own table
// entry, so router coalescing merges exactly the requests a backend's
// report cache would, and placement by system key keeps a system's
// artifact cells on one backend. It rejects only what every backend
// would reject the same way (body shape, system text, LTL syntax);
// alphabet-bound validation (ω-regexes, homs, Σ'-normal form) is the
// routed backend's bind step, whose 400 is proxied back verbatim.
func routeKeyFor(endpoint string, body []byte) (*call, error) {
	ep, err := endpointNamed(endpoint)
	if err != nil {
		return nil, err
	}
	return ep.key(body)
}

// handleCheck places, coalesces, and proxies one check request.
func (rt *Router) handleCheck(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	endpoint := r.PathValue("endpoint")
	body, err := readBody(w, r)
	var rk *call
	if err == nil {
		rk, err = routeKeyFor(endpoint, body)
	}
	if errors.Is(err, errUnknownEndpoint) {
		http.NotFound(w, r)
		return
	}
	if err != nil {
		rt.badRequests.Add(1)
		rt.writeError(w, http.StatusBadRequest, "bad_request", err)
		return
	}

	timeout := rt.cfg.ProxyTimeout
	if rk.timeoutMS > 0 {
		// The backend enforces the request's own timeout; the proxy
		// deadline only backstops a hung connection.
		timeout = time.Duration(rk.timeoutMS)*time.Millisecond + 15*time.Second
	}
	traceparent := r.Header.Get("traceparent")
	run := func(ctx context.Context) (*proxyResult, error) {
		return rt.proxy(ctx, endpoint, rk.sys.key, body, traceparent)
	}

	var res *proxyResult
	var shared bool
	if rk.noCache {
		// no_cache requests exist to measure the cold path; coalescing
		// them would hand one client another's answer.
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		res, err = run(ctx)
		cancel()
	} else {
		res, shared, err = rt.coalesce(rk.rkey, r.Context(), timeout, run)
		if shared {
			rt.coalesced.Add(1)
		}
	}
	switch {
	case err == nil:
	case r.Context().Err() != nil:
		rt.writeError(w, statusClientClosed, "cancelled", r.Context().Err())
		return
	default:
		rt.unavailable.Add(1)
		rt.writeError(w, http.StatusServiceUnavailable, "unavailable", err)
		return
	}

	h := w.Header()
	for _, k := range relayedHeaders {
		if v := res.header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set(BackendHeader, res.backend)
	if shared {
		h.Set(CoalescedHeader, "1")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// coalesce runs fn once per key across concurrent callers. The leader
// runs fn on a detached context bounded by timeout; every caller waits
// for the shared result or its own client's departure, and the last
// departing waiter cancels the detached run. The cell is removed when
// fn returns, so errors are never sticky. shared reports whether this
// caller joined an existing cell.
func (rt *Router) coalesce(key string, clientCtx context.Context, timeout time.Duration, fn func(context.Context) (*proxyResult, error)) (res *proxyResult, shared bool, err error) {
	rt.mu.Lock()
	if c, ok := rt.flight[key]; ok {
		c.waiters++
		rt.mu.Unlock()
		select {
		case <-c.done:
			return c.res, true, c.err
		case <-clientCtx.Done():
			rt.leave(key, c)
			return nil, true, clientCtx.Err()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	c := &flightCell{done: make(chan struct{}), cancel: cancel, waiters: 1}
	rt.flight[key] = c
	rt.mu.Unlock()

	go func() {
		r, e := fn(ctx)
		rt.mu.Lock()
		delete(rt.flight, key)
		c.res, c.err = r, e
		close(c.done)
		rt.mu.Unlock()
		cancel()
	}()

	select {
	case <-c.done:
		return c.res, false, c.err
	case <-clientCtx.Done():
		rt.leave(key, c)
		return nil, false, clientCtx.Err()
	}
}

// leave drops one waiter from a cell; the last waiter out cancels the
// in-flight proxy (nobody is left to want its answer).
func (rt *Router) leave(key string, c *flightCell) {
	rt.mu.Lock()
	c.waiters--
	abandoned := c.waiters == 0 && rt.flight[key] == c
	rt.mu.Unlock()
	if abandoned {
		c.cancel()
	}
}

// proxy tries the key's backends in pick order until one yields an
// answer. Connection errors mark the backend unhealthy and fail over;
// 429 (shedding) and 503 (draining) fail over without a health flip —
// the prober decides. Every other status, including the backend's own
// 4xx/5xx verdicts, is the answer.
func (rt *Router) proxy(ctx context.Context, endpoint, sysKey string, body []byte, traceparent string) (*proxyResult, error) {
	var lastErr error
	for i, b := range rt.pick(sysKey) {
		if i > 0 {
			rt.failovers.Add(1)
		}
		res, err := rt.tryBackend(ctx, b, endpoint, body, traceparent)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			b.noteError(err)
			if rt.log != nil {
				rt.log.Warn("backend failed", "backend", b.url, "err", err)
			}
			lastErr = err
			continue
		}
		if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
			lastErr = fmt.Errorf("%s: status %d", b.url, res.status)
			continue
		}
		return res, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no backend available")
	}
	return nil, lastErr
}

// tryBackend proxies one request to one backend.
func (rt *Router) tryBackend(ctx context.Context, b *routeBackend, endpoint string, body []byte, traceparent string) (*proxyResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/check/"+endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	b.inflight.Add(1)
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		b.inflight.Add(-1)
		return nil, err
	}
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes+1))
	resp.Body.Close()
	b.latency.Observe(time.Since(start).Nanoseconds())
	b.inflight.Add(-1)
	if err != nil {
		return nil, err
	}
	b.proxied.Add(1)
	return &proxyResult{
		status:  resp.StatusCode,
		body:    respBody,
		header:  resp.Header,
		backend: b.url,
	}, nil
}

// probeLoop polls every backend's /healthz on HealthInterval. A 200
// marks the backend healthy (recovering it after connection errors); a
// 503 (draining) or any failure marks it unhealthy.
func (rt *Router) probeLoop() {
	defer rt.probing.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		rt.probeAll()
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *routeBackend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				b.noteError(err)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				was := b.healthy.Swap(true)
				if !was && rt.log != nil {
					rt.log.Info("backend recovered", "backend", b.url)
				}
			} else {
				b.noteError(fmt.Errorf("healthz status %d", resp.StatusCode))
			}
		}(b)
	}
	wg.Wait()
}

// RouterBackendHealth is one backend's entry in the router's /healthz.
type RouterBackendHealth struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Inflight  int64  `json:"inflight"`
	Proxied   int64  `json:"proxied"`
	LastError string `json:"last_error,omitempty"`
}

// RouterHealthResponse is the body of the router's /healthz: "ok"
// while at least one backend is healthy, "degraded" otherwise.
type RouterHealthResponse struct {
	Status    string                `json:"status"`
	Version   string                `json:"version"`
	GoVersion string                `json:"go_version"`
	Backends  []RouterBackendHealth `json:"backends"`
}

// Backends returns a snapshot of every backend's routing state.
func (rt *Router) Backends() []RouterBackendHealth {
	out := make([]RouterBackendHealth, len(rt.backends))
	for i, b := range rt.backends {
		b.mu.Lock()
		lastErr := b.lastErr
		b.mu.Unlock()
		out[i] = RouterBackendHealth{
			URL:       b.url,
			Healthy:   b.healthy.Load(),
			Inflight:  b.inflight.Load(),
			Proxied:   b.proxied.Load(),
			LastError: lastErr,
		}
	}
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	build := Build()
	resp := RouterHealthResponse{
		Status:    "degraded",
		Version:   build.Version,
		GoVersion: build.GoVersion,
		Backends:  rt.Backends(),
	}
	status := http.StatusServiceUnavailable
	for _, b := range resp.Backends {
		if b.Healthy {
			resp.Status = "ok"
			status = http.StatusOK
			break
		}
	}
	writeJSON(w, status, resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	writeSample(&b, "counter", "relive_route_requests_total", "", rt.requests.Load())
	writeSample(&b, "counter", "relive_route_coalesced_total", "", rt.coalesced.Load())
	writeSample(&b, "counter", "relive_route_failover_total", "", rt.failovers.Load())
	writeSample(&b, "counter", "relive_route_bad_request_total", "", rt.badRequests.Load())
	writeSample(&b, "counter", "relive_route_unavailable_total", "", rt.unavailable.Load())

	fmt.Fprintf(&b, "# TYPE relive_route_proxied_total counter\n")
	for _, bk := range rt.backends {
		fmt.Fprintf(&b, "relive_route_proxied_total{backend=%q} %d\n", bk.url, bk.proxied.Load())
	}
	fmt.Fprintf(&b, "# TYPE relive_route_backend_errors_total counter\n")
	for _, bk := range rt.backends {
		fmt.Fprintf(&b, "relive_route_backend_errors_total{backend=%q} %d\n", bk.url, bk.errs.Load())
	}
	fmt.Fprintf(&b, "# TYPE relive_route_backend_healthy gauge\n")
	for _, bk := range rt.backends {
		healthy := 0
		if bk.healthy.Load() {
			healthy = 1
		}
		fmt.Fprintf(&b, "relive_route_backend_healthy{backend=%q} %d\n", bk.url, healthy)
	}
	fmt.Fprintf(&b, "# TYPE relive_route_backend_inflight gauge\n")
	for _, bk := range rt.backends {
		fmt.Fprintf(&b, "relive_route_backend_inflight{backend=%q} %d\n", bk.url, bk.inflight.Load())
	}
	fmt.Fprintf(&b, "# TYPE relive_route_backend_seconds histogram\n")
	for _, bk := range rt.backends {
		writeHistogramSeries(&b, "relive_route_backend_seconds", fmt.Sprintf("backend=%q", bk.url), bk.latency.Snapshot())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

func (rt *Router) writeError(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind})
}
