package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"relive/internal/obs"
	"relive/internal/serve"
	"relive/internal/store"
)

// clients is the load generator's concurrency: at most two client
// goroutines over at most two connections, from this one process.
const clients = 2

// deployment is one running instance of the service under test: a
// single server, or a router in front of two backends that share one
// store volume.
type deployment struct {
	url       string          // where the load goes
	servers   []*serve.Server // the checking servers
	serverURL []string        // their base URLs, for /metrics
	routerURL string          // "" without a router
	closers   []func()
}

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// deployConfig is what differs between the deployments a run starts.
type deployConfig struct {
	cluster bool
	flight  int    // serve.Config.FlightEntries; 0 keeps the default
	volume  string // the cluster's shared store directory
}

// deploy starts a deployment with the default serve.Config except that
// Workers is the number of CPUs (and, in the cluster, each backend keeps
// 512 reports in memory over the shared store).
func deploy(c deployConfig) (*deployment, error) {
	d := &deployment{}
	n := 1
	if c.cluster {
		n = 2
	}
	for i := 0; i < n; i++ {
		cfg := serve.Config{Workers: runtime.NumCPU(), FlightEntries: c.flight}
		if c.cluster {
			st, err := store.Open(c.volume, store.Options{})
			if err != nil {
				d.close()
				return nil, fmt.Errorf("opening the store: %w", err)
			}
			cfg.Store = st
			cfg.ReportEntries = 512
		}
		s := serve.New(cfg)
		hs := httptest.NewServer(s.Handler())
		d.closers = append(d.closers, hs.Close)
		d.servers = append(d.servers, s)
		d.serverURL = append(d.serverURL, hs.URL)
	}
	d.url = d.serverURL[0]
	if c.cluster {
		rt, err := serve.NewRouter(serve.RouterConfig{Backends: d.serverURL})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("starting the router: %w", err)
		}
		d.closers = append(d.closers, rt.Close)
		rs := httptest.NewServer(rt.Handler())
		d.closers = append(d.closers, rs.Close)
		d.url, d.routerURL = rs.URL, rs.URL
	}
	return d, nil
}

// Set-up timing. A fresh process's first few dozen starts run about
// twice as slow as later ones, and host noise comes in bursts, so setUp
// starts deployments untimed for setupWarm, then times back-to-back
// starts until setupTimed has passed and at least setupReps were timed;
// setup_s is their median. (Pausing between starts measured worse: the
// CPU idles and every start pays the wake-up.)
const (
	setupWarm  = 100 * time.Millisecond
	setupTimed = 100 * time.Millisecond
	setupReps  = 15
)

// setUp starts the deployment, timed as above when timed is set, and
// returns the last one started, still running.
func setUp(c deployConfig, timed bool) (*deployment, []float64, error) {
	if !timed {
		d, _, err := startHealthy(c)
		return d, nil, err
	}
	for begin := time.Now(); ; {
		d, _, err := startHealthy(c)
		if err != nil {
			return nil, nil, err
		}
		d.close()
		if time.Since(begin) >= setupWarm {
			break
		}
	}
	var times []float64
	for begin := time.Now(); ; {
		d, took, err := startHealthy(c)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, took.Seconds())
		if len(times) >= setupReps && time.Since(begin) >= setupTimed {
			return d, times, nil
		}
		d.close()
	}
}

// startHealthy starts a deployment and waits until its /healthz answers
// 200, returning how long that took.
func startHealthy(c deployConfig) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := deploy(c)
	if err != nil {
		return nil, 0, err
	}
	if err := waitHealthy(d.url); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func waitHealthy(url string) error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	for attempt := 0; attempt < 1000; attempt++ {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s/healthz never answered 200", url)
}

// outcome is what one sent request got. Times are offsets from the
// start of the loop that sent it.
type outcome struct {
	req     *request // nil when the position was never sent
	traceID string
	span    obs.SpanID // client span on the traced pass
	due     time.Duration
	sent    time.Duration
	done    time.Duration
	status  int
	cache   string // X-Relive-Cache
	body    []byte
	err     error
}

func (o *outcome) failed() bool { return o.err != nil || o.status != http.StatusOK }

// loadClient sends requests over at most two connections. On the traced
// pass it stamps each request with a traceparent and records a client
// span around it.
type loadClient struct {
	http  *http.Client
	url   string
	spans *obs.Trace                // nil on the untraced pass
	ids   func(position int) string // trace ID of a schedule position
}

func newLoadClient(url string, spans *obs.Trace, ids func(int) string) *loadClient {
	return &loadClient{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		url:   url,
		spans: spans,
		ids:   ids,
	}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

func (c *loadClient) send(r *request, position int, origin time.Time, o *outcome) {
	o.req = r
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/check/"+r.Endpoint, bytes.NewReader(r.Body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if c.spans != nil {
		o.traceID = c.ids(position)
		req.Header.Set(serve.TraceHeader, obs.Traceparent(o.traceID))
		o.span = c.spans.SpanStartAt("client "+r.Endpoint, 0)
	}
	o.sent = time.Since(origin)
	resp, err := c.http.Do(req)
	if err == nil {
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
		o.cache = resp.Header.Get(serve.CacheHeader)
	}
	o.done = time.Since(origin)
	if c.spans != nil {
		c.spans.SpanTag(o.span, "trace_id", o.traceID)
		c.spans.SpanEnd(o.span)
	}
	o.err = err
}

// rendezvous holds the first of a pair's two senders until the second
// arrives, so both copies leave at once.
type rendezvous struct {
	arrived atomic.Int32
	both    chan struct{}
}

func (r *rendezvous) meet(ctx context.Context) bool {
	if r.arrived.Add(1) == 2 {
		close(r.both)
		return true
	}
	select {
	case <-r.both:
		return true
	case <-ctx.Done():
		return false
	}
}

// closedLoop sends reqs from two clients, client c taking positions c,
// c+2, c+4, ...: each sends its next request as soon as the previous one
// is answered. A pair (positions 2r and 2r+1) waits for both clients.
// With window > 0 the clients stop issuing once the window has passed,
// and running out of requests first is an error; with window 0 every
// request is sent. Positions are numbered from base for trace IDs.
func (c *loadClient) closedLoop(reqs []request, base int, window time.Duration) ([]outcome, error) {
	outs := make([]outcome, len(reqs))
	meets := map[int]*rendezvous{}
	for i := 0; i+1 < len(reqs); i += 2 {
		if reqs[i].Pair {
			meets[i] = &rendezvous{both: make(chan struct{})}
		}
	}
	ctx := context.Background()
	origin := time.Now()
	if window > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, origin.Add(window))
		defer cancel()
	}
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			due := time.Since(origin)
			for i := cl; i < len(reqs); i += clients {
				if ctx.Err() != nil {
					return
				}
				if reqs[i].Pair {
					if !meets[i&^1].meet(ctx) {
						return
					}
					due = time.Since(origin)
				}
				outs[i].due = due
				c.send(&reqs[i], base+i, origin, &outs[i])
				due = outs[i].done
			}
			if window > 0 && ctx.Err() == nil {
				exhausted.Store(true)
			}
		}(cl)
	}
	wg.Wait()
	if exhausted.Load() {
		return nil, fmt.Errorf("the request stream ran out before the %v window closed; raise the workload's MaxRate", window)
	}
	return outs, nil
}

// openLoop sends each request at its due time (At) regardless of how
// many are still unanswered, from two clients over two connections; a
// request finds a free client only when one of the two is idle, so a
// stall delays the requests behind it and shows as lateness.
func (c *loadClient) openLoop(reqs []request, base int) []outcome {
	outs := make([]outcome, len(reqs))
	origin := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := reqs[i].At
				sleepUntil(origin.Add(due))
				outs[i].due = due
				c.send(&reqs[i], base+i, origin, &outs[i])
			}
		}()
	}
	wg.Wait()
	return outs
}

// sleepUntil blocks in the kernel until t. time.Sleep would park the
// goroutine on a runtime timer, and Go keeps timers on per-P heaps: on
// two Ps, while the garbage collector's dedicated mark worker holds one
// P for its ~16 ms phase and a check keeps the other busy, a timer on
// the marking P fires late. That made the generator 15–20 ms late on 1%
// of hot-mix sends; a kernel sleep wakes on time and only waits for a
// free P.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an interrupted or early wake-up loops
	}
}

// fill writes a schedule's Fill requests through a store-backed server
// over the volume, calling its handler in-process from two goroutines.
// The reports land on disk before the handler returns.
func fill(volume string, reqs []request) ([]outcome, error) {
	st, err := store.Open(volume, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening the store: %w", err)
	}
	h := serve.New(serve.Config{Workers: runtime.NumCPU(), Store: st}).Handler()
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check/"+r.Endpoint, bytes.NewReader(r.Body)))
				outs[i] = outcome{req: r, status: rec.Code, body: rec.Body.Bytes()}
			}
		}()
	}
	wg.Wait()
	return outs, nil
}
