package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The router's white-box suite: which requests share a route key, ring
// placement, bounded load, and the coalescing cell's lifecycle. The black-box cluster behavior lives in cluster_test.go.

// stubBackends starts n trivial HTTP servers whose /healthz always
// answers 200, so NewRouter's prober keeps them healthy.
func stubBackends(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	return urls
}

func newTestRouter(t *testing.T, urls []string) *Router {
	t.Helper()
	rt, err := NewRouter(RouterConfig{Backends: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestRouteKeyMirrorsBackendKeys pins which requests the router keys
// alike. Router and backend keys are equal by construction — routeKeyFor
// runs the backends' own endpoint table entry — so what remains to pin
// is behaviour: respellings and spelled-out defaults coalesce, distinct
// seeds, fairness notions and formulas do not (while keeping one
// placement per system), bad bodies are rejected, and unknown endpoints
// are flagged distinctly.
func TestRouteKeyMirrorsBackendKeys(t *testing.T) {
	sysText := "init idle\nidle request busy\nbusy result idle\nbusy reject idle\n"
	key := func(endpoint string, req any) *call {
		t.Helper()
		body, _ := json.Marshal(req)
		c, err := routeKeyFor(endpoint, body)
		if err != nil {
			t.Fatalf("%s: %v", endpoint, err)
		}
		return c
	}

	// The fairness notion is part of the key, so strong and weak requests
	// never coalesce into one another.
	faHom, faEta := "request=>req, result=>ok, reject=>", "G F ( ok )"
	strong := key("fair-abstract", FairAbstractRequest{System: sysText, Hom: faHom, Fairness: "strong", Eta: faEta})
	weak := key("fair-abstract", FairAbstractRequest{System: sysText, Hom: faHom, Fairness: "weak", Eta: faEta})
	if weak.rkey == strong.rkey {
		t.Fatal("strong and weak fair-abstract requests collided on one route key")
	}
	if weak.sys.key != strong.sys.key {
		t.Fatal("same system got different placement keys for different fairness notions")
	}
	if _, err := routeKeyFor("fair-abstract", []byte(`{"system":"init s\ns a s\n","hom":"a=>x","fairness":"fair","eta":"G x"}`)); err == nil {
		t.Fatal("invalid fairness notion accepted by the router")
	}

	// Statistical: an unset budget and the explicitly-spelled defaults
	// produce one key, and the seed is part of the key so distinct seeds
	// never coalesce.
	stat := key("statistical", StatisticalRequest{System: sysText, LTL: "G F result", Seed: 7})
	explicit := key("statistical", StatisticalRequest{
		System: sysText, LTL: "G F result", Seed: 7, Samples: 400, Steps: 256, Confidence: 0.99})
	if explicit.rkey != stat.rkey {
		t.Fatal("explicitly-spelled default budget got a different route key than the unset budget")
	}
	otherSeed := key("statistical", StatisticalRequest{System: sysText, LTL: "G F result", Seed: 8})
	if otherSeed.rkey == stat.rkey {
		t.Fatal("distinct seeds collided on one statistical route key")
	}
	if otherSeed.sys.key != stat.sys.key {
		t.Fatal("same system got different placement keys for different seeds")
	}
	if _, err := routeKeyFor("statistical", []byte(`{"system":"init s\ns a s\n","ltl":"G a","samples":-1}`)); err == nil {
		t.Fatal("invalid sampling budget accepted by the router")
	}

	// Canonicalization: a system respelled with extra blank lines and
	// whitespace, and a respelled formula, share one key; a different
	// formula does not.
	variant := "\ninit idle\n\nidle  request   busy\nbusy result idle\nbusy reject idle\n\n"
	k1 := key("all", CheckRequest{System: sysText, LTL: "G F result"})
	k2 := key("all", CheckRequest{System: variant, LTL: "G  F   result"})
	if k1.rkey != k2.rkey || k1.sys.key != k2.sys.key {
		t.Fatal("equivalent spellings of the same request got different route keys")
	}
	k3 := key("all", CheckRequest{System: sysText, LTL: "G F request"})
	if k3.rkey == k1.rkey {
		t.Fatal("different formulas collided on one route key")
	}
	if k3.sys.key != k1.sys.key {
		t.Fatal("same system got different placement keys for different formulas")
	}

	// Malformed requests are rejected with the same parse errors the
	// backend would produce; unknown endpoints are flagged distinctly.
	if _, err := routeKeyFor("all", []byte(`{"ltl":"G F a"}`)); err == nil {
		t.Fatal("missing system accepted")
	}
	b1, _ := json.Marshal(CheckRequest{System: sysText, LTL: "G F result"})
	if _, err := routeKeyFor("nope", b1); !errors.Is(err, errUnknownEndpoint) {
		t.Fatalf("unknown endpoint error = %v", err)
	}
}

// TestPickDeterministicSpread: placement is a pure function of the key,
// and distinct keys spread over every backend.
func TestPickDeterministicSpread(t *testing.T) {
	rt := newTestRouter(t, stubBackends(t, 3))
	counts := make(map[string]int)
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("sys-%d", i)
		order := rt.pick(key)
		if len(order) != 3 {
			t.Fatalf("pick returned %d backends, want 3", len(order))
		}
		again := rt.pick(key)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("pick(%q) not deterministic at position %d", key, j)
			}
		}
		counts[order[0].url]++
	}
	for _, b := range rt.backends {
		if c := counts[b.url]; c < 60 { // 10% of 600; fair share is 200
			t.Fatalf("backend %s owns only %d/600 keys — ring is unbalanced: %v", b.url, c, counts)
		}
	}
}

// TestPickBoundedLoadAndHealth: an overloaded backend yields its keys
// to the next ring candidate, and an unhealthy one sorts last.
func TestPickBoundedLoadAndHealth(t *testing.T) {
	rt := newTestRouter(t, stubBackends(t, 3))
	key := "hot-system"
	first := rt.pick(key)[0]

	// Pile in-flight proxies on the key's owner: with total=40 over 3
	// healthy backends the bounded-load cap is well under 40, so the
	// owner must be skipped.
	first.inflight.Store(40)
	order := rt.pick(key)
	if order[0] == first {
		t.Fatal("bounded load kept routing to the overloaded owner")
	}
	if order[len(order)-1] != first {
		t.Fatal("overloaded owner should sort after under-capacity backends")
	}
	first.inflight.Store(0)
	if rt.pick(key)[0] != first {
		t.Fatal("owner did not get its keys back after draining")
	}

	// Unhealthy sorts last but is still offered as a last resort.
	first.healthy.Store(false)
	order = rt.pick(key)
	if order[0] == first || order[len(order)-1] != first {
		t.Fatal("unhealthy owner should be the last resort")
	}
	first.healthy.Store(true)
}

// TestCoalesceLifecycle: one run per key across concurrent callers,
// errors shared with the waiters of the moment but never sticky, and
// the last departing waiter cancels the detached run.
func TestCoalesceLifecycle(t *testing.T) {
	rt := &Router{flight: make(map[string]*flightCell)}
	var runs atomic.Int64
	release := make(chan struct{})
	fn := func(ctx context.Context) (*proxyResult, error) {
		runs.Add(1)
		<-release
		return &proxyResult{status: 200, body: []byte("shared")}, nil
	}

	const n = 50
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			res, shared, err := rt.coalesce("k", context.Background(), time.Minute, fn)
			if err != nil || string(res.body) != "shared" {
				t.Errorf("coalesced call: res=%v err=%v", res, err)
				return
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// All callers are in flight (the leader is parked on release);
	// every later arrival must have joined its cell.
	for {
		rt.mu.Lock()
		c := rt.flight["k"]
		waiters := 0
		if c != nil {
			waiters = c.waiters
		}
		rt.mu.Unlock()
		if waiters == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical calls ran fn %d times, want 1", n, got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("shared=true for %d callers, want %d", got, n-1)
	}

	// Errors are delivered to current waiters but the cell dies with the
	// run: the next call retries immediately.
	boom := errors.New("backend exploded")
	failOnce := func(ctx context.Context) (*proxyResult, error) { return nil, boom }
	if _, _, err := rt.coalesce("e", context.Background(), time.Minute, failOnce); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	ok := func(ctx context.Context) (*proxyResult, error) {
		return &proxyResult{status: 200, body: []byte("recovered")}, nil
	}
	res, shared, err := rt.coalesce("e", context.Background(), time.Minute, ok)
	if err != nil || shared || string(res.body) != "recovered" {
		t.Fatalf("error was sticky: res=%v shared=%v err=%v", res, shared, err)
	}

	// Last waiter out cancels the detached run.
	cancelled := make(chan struct{})
	hang := func(ctx context.Context) (*proxyResult, error) {
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}
	clientCtx, clientCancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := rt.coalesce("h", clientCtx, time.Minute, hang)
		errc <- err
	}()
	for {
		rt.mu.Lock()
		_, inFlight := rt.flight["h"]
		rt.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	clientCancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("departing caller got %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned run was never cancelled")
	}
}

// TestRouterRejectsEmptyBackends: configuration errors are loud.
func TestRouterRejectsEmptyBackends(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Fatal("NewRouter accepted zero backends")
	}
	if _, err := NewRouter(RouterConfig{Backends: []string{"", "  "}}); err == nil {
		t.Fatal("NewRouter accepted only-blank backend URLs")
	}
}
