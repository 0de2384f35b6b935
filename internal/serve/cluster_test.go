package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"relive/internal/serve"
	"relive/internal/store"
)

// The cluster suite: a 3-backend rlserve fleet sharing one on-disk
// artifact store behind a shard router, all in-process. The properties
// under test are the distributed deployment's contract — bit-identical
// answers to a single node, cluster-wide coalescing of identical
// concurrent requests, failover across backend death with warm answers
// from the shared store, and warm restarts that skip recomputation.

type clusterBackend struct {
	s  *serve.Server
	hs *httptest.Server
}

type cluster struct {
	dir      string
	backends []*clusterBackend
	router   *serve.Router
	rs       *httptest.Server
}

// startBackend boots one rlserve replica over the shared store dir; a
// non-nil wrap wraps its handler.
func startBackend(t *testing.T, dir string, wrap func(http.Handler) http.Handler) *clusterBackend {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{Store: st})
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return &clusterBackend{s: s, hs: hs}
}

// startCluster boots n replicas over one store dir plus a router with a
// fast health probe; a non-nil wrap wraps every backend's handler.
func startCluster(t *testing.T, n int, wrap func(http.Handler) http.Handler) *cluster {
	t.Helper()
	c := &cluster{dir: t.TempDir()}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		b := startBackend(t, c.dir, wrap)
		c.backends = append(c.backends, b)
		urls[i] = b.hs.URL
	}
	rt, err := serve.NewRouter(serve.RouterConfig{
		Backends:       urls,
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	c.router = rt
	c.rs = httptest.NewServer(rt.Handler())
	t.Cleanup(c.rs.Close)
	return c
}

// waitHealthy polls the router until exactly want backends are healthy.
func (c *cluster) waitHealthy(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		healthy := 0
		for _, b := range c.router.Backends() {
			if b.Healthy {
				healthy++
			}
		}
		if healthy == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("router never converged to %d healthy backends: %+v", want, c.router.Backends())
}

// postFull posts body and returns status, all response headers, and the
// raw bytes — the cluster tests care about routing headers postJSON
// does not surface.
func postFull(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// clusterBattery is the request mix the bit-identity and failover tests
// replay: every endpoint shape, several distinct systems.
func clusterBattery() []struct {
	endpoint string
	body     any
} {
	battery := []struct {
		endpoint string
		body     any
	}{
		{"all", serve.CheckRequest{System: serverText, LTL: "G F result"}},
		{"liveness", serve.CheckRequest{System: serverText, LTL: "G F result"}},
		{"safety", serve.CheckRequest{System: serverText, LTL: "G F result"}},
		{"satisfies", serve.CheckRequest{System: serverText, LTL: "G F result"}},
		{"all", serve.CheckRequest{System: serverText, Omega: "( request result | request reject ) ^w"}},
		{"portfolio", serve.PortfolioRequest{System: serverText, LTLs: []string{"G F result", "G F request"}}},
		{"abstraction", serve.AbstractionRequest{
			System: concreteText,
			Hom:    "request=>request, result=>result, reject=>reject, accept=>, deny=>",
			Eta:    "G F ( result | reject )",
		}},
		{"fair-abstract", serve.FairAbstractRequest{
			System:   serverText,
			Hom:      "request=>req, result=>ok, reject=>",
			Fairness: "strong",
			Eta:      "G F ok",
		}},
		{"fair-abstract", serve.FairAbstractRequest{
			System:   serverText,
			Hom:      "request=>req, result=>ok, reject=>",
			Fairness: "weak",
			Eta:      "G F ok",
		}},
	}
	// A few extra systems so the ring has several placement keys to
	// spread — without them every check lands on one backend.
	for i := 0; i < 6; i++ {
		battery = append(battery, struct {
			endpoint string
			body     any
		}{"all", serve.CheckRequest{System: bigSystemText(40 + 13*i), LTL: "G F a"}})
	}
	return battery
}

// TestClusterBitIdenticalToSingleNode: the same battery against a
// plain single-node server and against the 3-backend cluster must
// produce byte-identical bodies — the router's core contract.
func TestClusterBitIdenticalToSingleNode(t *testing.T) {
	_, single := newTestServer(t, serve.Config{})
	c := startCluster(t, 3, nil)

	for i, req := range clusterBattery() {
		wantStatus, _, wantBody := postFull(t, single.URL+"/v1/check/"+req.endpoint, req.body)
		gotStatus, hdr, gotBody := postFull(t, c.rs.URL+"/v1/check/"+req.endpoint, req.body)
		if gotStatus != wantStatus {
			t.Fatalf("battery[%d] %s: cluster status %d, single-node %d\ncluster: %s\nsingle: %s",
				i, req.endpoint, gotStatus, wantStatus, gotBody, wantBody)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("battery[%d] %s: cluster answer differs from single node\ncluster: %s\nsingle: %s",
				i, req.endpoint, gotBody, wantBody)
		}
		if hdr.Get(serve.BackendHeader) == "" {
			t.Fatalf("battery[%d] %s: response missing %s header", i, req.endpoint, serve.BackendHeader)
		}
	}

	// Malformed requests are rejected at the router with the same status
	// and error kind a backend produces.
	bad := serve.CheckRequest{System: "init", LTL: "G F a"} // truncated system line
	sStatus, _, sBody := postFull(t, single.URL+"/v1/check/all", bad)
	rStatus, _, rBody := postFull(t, c.rs.URL+"/v1/check/all", bad)
	if rStatus != sStatus || rStatus != http.StatusBadRequest {
		t.Fatalf("bad request: cluster %d (%s), single %d (%s)", rStatus, rBody, sStatus, sBody)
	}
	var sErr, rErr serve.ErrorResponse
	decodeInto(t, sBody, &sErr)
	decodeInto(t, rBody, &rErr)
	if rErr.Kind != sErr.Kind {
		t.Fatalf("bad request kind: cluster %q, single %q", rErr.Kind, sErr.Kind)
	}
}

// TestClusterCoalescing: many concurrent identical expensive requests
// through the router collapse into ONE backend check; everyone shares
// the same bytes.
func TestClusterCoalescing(t *testing.T) {
	const n = 120
	// The backends hold every check until all n callers have joined the
	// router's flight cell, so the leader's proxy cannot finish (and a
	// late caller start a second one) before the last caller keys its
	// request.
	gate := make(chan struct{})
	c := startCluster(t, 3, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/check/") {
				<-gate
			}
			h.ServeHTTP(w, r)
		})
	})
	go func() {
		defer close(gate)
		deadline := time.Now().Add(10 * time.Second)
		for c.router.FlightWaiters() < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}()
	req := serve.CheckRequest{System: bigSystemText(2500), LTL: slowLTL}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status    int
		coalesced bool
		body      []byte
	}
	results := make([]result, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(c.rs.URL+"/v1/check/all", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			results[i] = result{
				status:    resp.StatusCode,
				coalesced: resp.Header.Get(serve.CoalescedHeader) == "1",
				body:      raw,
			}
		}(i)
	}
	close(start)
	wg.Wait()

	coalesced := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d: body differs from request 0", i)
		}
		if r.coalesced {
			coalesced++
		}
	}
	var proxied int64
	for _, b := range c.router.Backends() {
		proxied += b.Proxied
	}
	if proxied != 1 {
		t.Fatalf("%d identical concurrent requests reached the backends %d times, want exactly 1", n, proxied)
	}
	if coalesced < n-1 {
		t.Fatalf("only %d/%d responses were coalesced, want %d", coalesced, n, n-1)
	}
	t.Logf("coalescing: %d concurrent identical requests -> %d backend check(s), %d shared answers", n, proxied, coalesced)
}

// TestClusterFailoverAndWarmStore: kill the backend that owns a key —
// the router fails over and the surviving backend answers bit-identically
// straight from the shared store; restart the backend on the same port
// and it rejoins warm.
func TestClusterFailoverAndWarmStore(t *testing.T) {
	c := startCluster(t, 3, nil)
	battery := clusterBattery()

	type answer struct {
		status  int
		body    []byte
		backend string
	}
	first := make([]answer, len(battery))
	for i, req := range battery {
		status, hdr, body := postFull(t, c.rs.URL+"/v1/check/"+req.endpoint, req.body)
		if status != http.StatusOK {
			t.Fatalf("battery[%d] %s: status %d: %s", i, req.endpoint, status, body)
		}
		first[i] = answer{status, body, hdr.Get(serve.BackendHeader)}
	}

	// Kill the backend that served the most of the battery.
	served := map[string]int{}
	for _, a := range first {
		served[a.backend]++
	}
	var victimURL string
	for url, n := range served {
		if victimURL == "" || n > served[victimURL] {
			victimURL = url
		}
	}
	var victim *clusterBackend
	for _, b := range c.backends {
		if b.hs.URL == victimURL {
			victim = b
		}
	}
	if victim == nil {
		t.Fatalf("no backend matches %q", victimURL)
	}
	victimAddr := victim.hs.Listener.Addr().String()
	victim.hs.CloseClientConnections()
	victim.hs.Close()
	c.waitHealthy(t, 2)

	// The full battery still answers, bit-identically, and the requests
	// that were owned by the victim come warm off the shared store.
	rerouted, warm := 0, 0
	for i, req := range battery {
		status, hdr, body := postFull(t, c.rs.URL+"/v1/check/"+req.endpoint, req.body)
		if status != http.StatusOK {
			t.Fatalf("battery[%d] %s after kill: status %d: %s", i, req.endpoint, status, body)
		}
		if !bytes.Equal(body, first[i].body) {
			t.Fatalf("battery[%d] %s: answer changed after backend death\nbefore: %s\nafter: %s",
				i, req.endpoint, first[i].body, body)
		}
		if hdr.Get(serve.BackendHeader) == victimURL {
			t.Fatalf("battery[%d]: routed to the dead backend %s", i, victimURL)
		}
		if first[i].backend == victimURL {
			rerouted++
			if hdr.Get(serve.CacheHeader) == "hit" {
				warm++
			}
		}
	}
	if rerouted == 0 {
		t.Fatal("the killed backend served nothing in round one; the test lost its subject")
	}
	if warm == 0 {
		t.Fatalf("none of the %d rerouted requests hit the shared store on the surviving backend", rerouted)
	}
	t.Logf("failover: %d requests rerouted off the dead backend, %d answered warm from the shared store", rerouted, warm)

	// Restart a replacement replica on the victim's address, over the
	// same store. The router's probe must recover it, and its first
	// answer for a key it never computed must come warm off the store.
	l, err := net.Listen("tcp", victimAddr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", victimAddr, err)
	}
	st, err := store.Open(c.dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replacement := serve.New(serve.Config{Store: st})
	hs2 := &httptest.Server{Listener: l, Config: &http.Server{Handler: replacement.Handler()}}
	hs2.Start()
	t.Cleanup(hs2.Close)
	c.waitHealthy(t, 3)

	recovered := 0
	for i, req := range battery {
		if first[i].backend != victimURL {
			continue
		}
		status, hdr, body := postFull(t, c.rs.URL+"/v1/check/"+req.endpoint, req.body)
		if status != http.StatusOK || !bytes.Equal(body, first[i].body) {
			t.Fatalf("battery[%d] after restart: status %d, identical=%v", i, status, bytes.Equal(body, first[i].body))
		}
		if hdr.Get(serve.BackendHeader) == victimURL {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("router never routed back to the restarted backend")
	}
	stats := replacement.Store().Stats()
	if stats.Hits == 0 {
		t.Fatalf("restarted backend recomputed everything; store stats: %+v", stats)
	}
	t.Logf("restart: %d keys returned to the restarted backend, store hits %d", recovered, stats.Hits)
}

// TestWarmRestartStore: a fresh server over a populated store answers
// bit-identically without recomputing, and the warm path is measurably
// faster than the cold one — the BENCH_05 claim, in miniature.
func TestWarmRestartStore(t *testing.T) {
	dir := t.TempDir()
	requests := make([]serve.CheckRequest, 0, 8)
	for i := 0; i < 8; i++ {
		requests = append(requests, serve.CheckRequest{System: bigSystemText(400 + 60*i), LTL: slowLTL})
	}

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := serve.New(serve.Config{Store: st1})
	hs1 := httptest.NewServer(s1.Handler())
	cold := make([]time.Duration, len(requests))
	firstBodies := make([][]byte, len(requests))
	for i, req := range requests {
		begin := time.Now()
		status, _, body := postFull(t, hs1.URL+"/v1/check/all", req)
		cold[i] = time.Since(begin)
		if status != http.StatusOK {
			t.Fatalf("cold %d: status %d: %s", i, status, body)
		}
		firstBodies[i] = body
	}
	hs1.Close()

	// A brand-new process over the same volume: empty LRUs, warm store.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := serve.New(serve.Config{Store: st2})
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	warm := make([]time.Duration, len(requests))
	for i, req := range requests {
		begin := time.Now()
		status, hdr, body := postFull(t, hs2.URL+"/v1/check/all", req)
		warm[i] = time.Since(begin)
		if status != http.StatusOK {
			t.Fatalf("warm %d: status %d: %s", i, status, body)
		}
		if hdr.Get(serve.CacheHeader) != "hit" {
			t.Fatalf("warm %d: cache header %q, want hit (store should have answered)", i, hdr.Get(serve.CacheHeader))
		}
		if !bytes.Equal(body, firstBodies[i]) {
			t.Fatalf("warm %d: restart changed the answer\ncold: %s\nwarm: %s", i, firstBodies[i], body)
		}
	}
	if s2.Store().Stats().Hits == 0 {
		t.Fatal("warm server reports zero store hits")
	}

	cm, wm := median(cold), median(warm)
	t.Logf("warm restart: cold median %v, warm median %v (%.1fx)", cm, wm, float64(cm)/float64(wm))
	if wm >= cm {
		t.Fatalf("warm restart no faster than cold: cold median %v, warm median %v", cm, wm)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// TestClusterStoreCorruptionRecomputes: trash every artifact on the
// shared volume — a fresh server must treat them as misses, recompute,
// and still answer bit-identically. Torn writes never become answers.
func TestClusterStoreCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	req := serve.CheckRequest{System: serverText, LTL: "G F result"}

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := serve.New(serve.Config{Store: st1})
	hs1 := httptest.NewServer(s1.Handler())
	status, _, want := postFull(t, hs1.URL+"/v1/check/all", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, want)
	}
	hs1.Close()

	// Overwrite every artifact with garbage shorter than a valid header.
	corrupted := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".art" {
			return err
		}
		corrupted++
		return os.WriteFile(path, []byte("torn"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no artifacts were written to the store")
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := serve.New(serve.Config{Store: st2})
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	status, hdr, got := postFull(t, hs2.URL+"/v1/check/all", req)
	if status != http.StatusOK {
		t.Fatalf("after corruption: status %d: %s", status, got)
	}
	if hdr.Get(serve.CacheHeader) == "hit" {
		t.Fatal("corrupt artifact was served as a cache hit")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recomputed answer differs\nbefore: %s\nafter: %s", want, got)
	}
	if s2.Store().Stats().Corrupt == 0 {
		t.Fatalf("store did not record the corruption: %+v", s2.Store().Stats())
	}
}

// TestRouterHealthzAndMetrics: the router's own observability surface
// reflects the cluster.
func TestRouterHealthzAndMetrics(t *testing.T) {
	c := startCluster(t, 3, nil)
	_, _, _ = postFull(t, c.rs.URL+"/v1/check/all", serve.CheckRequest{System: serverText, LTL: "G F result"})

	resp, err := http.Get(c.rs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h serve.RouterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Backends) != 3 {
		t.Fatalf("healthz = %+v", h)
	}
	var proxied int64
	for _, b := range h.Backends {
		proxied += b.Proxied
	}
	if proxied == 0 {
		t.Fatal("healthz shows zero proxied requests after a check")
	}

	mresp, err := http.Get(c.rs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"relive_route_requests_total",
		"relive_route_coalesced_total",
		"relive_route_backend_healthy",
		"relive_route_backend_seconds_bucket",
	} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Fatalf("router /metrics missing %s:\n%s", series, metrics)
		}
	}

	// When every backend dies, the router degrades loudly instead of
	// hanging: /healthz goes 503 and checks get a typed 503 answer.
	for _, b := range c.backends {
		b.hs.Close()
	}
	c.waitHealthy(t, 0)
	status, _, body := postFull(t, c.rs.URL+"/v1/check/all", serve.CheckRequest{System: serverText, LTL: "G F request"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("check against dead cluster: status %d: %s", status, body)
	}
	var er serve.ErrorResponse
	decodeInto(t, body, &er)
	if er.Kind != "unavailable" {
		t.Fatalf("error kind %q, want unavailable", er.Kind)
	}
	hresp, err := http.Get(c.rs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead cluster: status %d", hresp.StatusCode)
	}
}
