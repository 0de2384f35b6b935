package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"relive/internal/core"
	"relive/internal/fairness"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/serve"
	"relive/internal/store"
	"relive/internal/ts"
)

// The /v1/check/fair-abstract side of the e2e harness: verdicts equal
// direct core calls, replays from the report LRU and the persistent
// store are bit-identical to the cold run, mid-check cancellation
// unwinds without leaking goroutines, and the endpoint participates in
// admission control (429 shedding) like every other check route.

// fairAbstractFixture is the paper example under fairness: strong
// transition fairness forces busy->result infinitely often, so
// "G F ok" holds strongly but fails weakly (the request/reject loop is
// weakly fair and its image is req^ω).
func fairAbstractFixture(fairKind string) serve.FairAbstractRequest {
	return serve.FairAbstractRequest{
		System:   serverText,
		Hom:      "request=>req, result=>ok, reject=>",
		Fairness: fairKind,
		Eta:      "G F ok",
	}
}

// slowFairAbstract is a fair-abstract request whose cold check takes
// long enough for mid-flight cancellation and shedding to land.
func slowFairAbstract(noCache bool, timeoutMS int) serve.FairAbstractRequest {
	return serve.FairAbstractRequest{
		System:    bigSystemText(4000),
		Hom:       "a=>a, b=>b, c=>c",
		Fairness:  "strong",
		Eta:       slowLTL,
		TimeoutMS: timeoutMS,
		NoCache:   noCache,
	}
}

// TestFairAbstractEndpointVerdicts: served verdicts equal direct core
// calls for both fairness notions on the paper fixture.
func TestFairAbstractEndpointVerdicts(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	sys, err := ts.ParseString(serverText)
	if err != nil {
		t.Fatal(err)
	}
	for name, kind := range map[string]fairness.Kind{"strong": fairness.Strong, "weak": fairness.Weak} {
		req := fairAbstractFixture(name)
		h, err := hom.Parse(sys.Alphabet(), req.Hom)
		if err != nil {
			t.Fatal(err)
		}
		eta, err := ltl.Parse(req.Eta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.CheckFairAbstract(sys, h, kind, core.FromFormula(eta, ltl.Canonical(h.Dest())))
		if err != nil {
			t.Fatal(err)
		}
		status, _, body := postJSON(t, hs.URL+"/v1/check/fair-abstract", req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, body)
		}
		var rep core.FairAbstractReport
		decodeInto(t, body, &rep)
		if rep.Holds != want.Holds || rep.Fairness != want.Fairness {
			t.Fatalf("%s: served %+v, core %+v", name, rep, want)
		}
		if !rep.Holds && len(rep.AbstractLoop) == 0 {
			t.Fatalf("%s: violation reported without an abstract witness loop", name)
		}
	}
	// Sanity-pin the fixture's intended asymmetry so the test cannot go
	// vacuously green: strong holds, weak fails.
	var strong, weak core.FairAbstractReport
	_, _, body := postJSON(t, hs.URL+"/v1/check/fair-abstract", fairAbstractFixture("strong"))
	decodeInto(t, body, &strong)
	_, _, body = postJSON(t, hs.URL+"/v1/check/fair-abstract", fairAbstractFixture("weak"))
	decodeInto(t, body, &weak)
	if !strong.Holds || weak.Holds {
		t.Fatalf("fixture asymmetry lost: strong holds=%v, weak holds=%v", strong.Holds, weak.Holds)
	}
}

// TestFairAbstractCacheReplaysBitIdentical: the cold body, the
// report-LRU replay, and the persistent-store replay (a fresh server
// over the same volume, empty LRUs) are byte-identical; spelling
// changes still hit via structural keys; no_cache bypasses.
func TestFairAbstractCacheReplaysBitIdentical(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := serve.New(serve.Config{Store: st1})
	hs1 := httptest.NewServer(s1.Handler())
	defer hs1.Close()

	req := fairAbstractFixture("strong")
	status, hdr, cold := postJSON(t, hs1.URL+"/v1/check/fair-abstract", req)
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("cold: status %d header %q: %s", status, hdr, cold)
	}
	status, hdr, warm := postJSON(t, hs1.URL+"/v1/check/fair-abstract", req)
	if status != http.StatusOK || hdr != "hit" {
		t.Fatalf("report-LRU replay: status %d header %q", status, hdr)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("report-LRU replay differs from cold run:\ncold %s\nwarm %s", cold, warm)
	}
	if s1.Trace().Counters()["serve.cache.report_hits"] < 1 {
		t.Fatal("report-LRU hit not counted")
	}

	// Different spelling of the same system and formula: the structural
	// keys still hit the same report.
	respelled := req
	respelled.System = "# same system\n" + strings.ReplaceAll(serverText, "\n", "\n\n")
	respelled.Eta = "G (F (ok))"
	status, hdr, re := postJSON(t, hs1.URL+"/v1/check/fair-abstract", respelled)
	if status != http.StatusOK || hdr != "hit" {
		t.Fatalf("respelled: status %d header %q (want structural cache hit)", status, hdr)
	}
	if !bytes.Equal(cold, re) {
		t.Fatal("respelled hit differs from cold run")
	}

	status, hdr, _ = postJSON(t, hs1.URL+"/v1/check/fair-abstract",
		serve.FairAbstractRequest{System: req.System, Hom: req.Hom, Fairness: req.Fairness, Eta: req.Eta, NoCache: true})
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("no_cache: status %d header %q, want fresh miss", status, hdr)
	}

	// A brand-new process over the same volume: empty LRUs, warm store.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := serve.New(serve.Config{Store: st2})
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	status, hdr, stored := postJSON(t, hs2.URL+"/v1/check/fair-abstract", req)
	if status != http.StatusOK || hdr != "hit" {
		t.Fatalf("store replay: status %d header %q", status, hdr)
	}
	if !bytes.Equal(cold, stored) {
		t.Fatalf("store replay differs from cold run:\ncold %s\nstore %s", cold, stored)
	}
	if s2.Trace().Counters()["serve.store.report_hits"] < 1 {
		t.Fatal("store hit not counted on the fresh server")
	}
	// The distinct fairness notion is a distinct key: the weak variant
	// must not replay the strong report.
	status, hdr, weak := postJSON(t, hs2.URL+"/v1/check/fair-abstract", fairAbstractFixture("weak"))
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("weak variant: status %d header %q, want a cold run", status, hdr)
	}
	if bytes.Equal(weak, cold) {
		t.Fatal("weak and strong verdicts share one cached body")
	}
}

// TestFairAbstractBadRequests: decode-time and parse-time rejections
// are 400 "bad_request" before any worker slot is spent.
func TestFairAbstractBadRequests(t *testing.T) {
	s, hs := newTestServer(t, serve.Config{})
	cases := []struct {
		name string
		body string
	}{
		{"no hom", `{"system":"init s\ns a s\n","fairness":"strong","eta":"G a"}`},
		{"no fairness", `{"system":"init s\ns a s\n","hom":"a=>x","eta":"G x"}`},
		{"bad fairness", `{"system":"init s\ns a s\n","hom":"a=>x","fairness":"fair","eta":"G x"}`},
		{"no eta", `{"system":"init s\ns a s\n","hom":"a=>x","fairness":"weak"}`},
		{"bad hom letter", `{"system":"init s\ns a s\n","hom":"zzz=>x","fairness":"strong","eta":"G x"}`},
		{"bad eta", `{"system":"init s\ns a s\n","hom":"a=>x","fairness":"strong","eta":"G ("}`},
		{"concrete-letter eta", `{"system":"init s\ns a s\ns b s\n","hom":"a=>x, b=>","fairness":"strong","eta":"G F b"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/v1/check/fair-abstract", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var er serve.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || er.Kind != "bad_request" {
				t.Fatalf("status %d kind %q, want 400 bad_request", resp.StatusCode, er.Kind)
			}
		})
	}
	if got := s.Trace().Gauges()["serve.inflight"]; got != 0 {
		t.Fatalf("bad requests left %d inflight", got)
	}
	if _, admitted := s.Trace().Gauges()["serve.queued"]; admitted {
		t.Fatal("a bad request was admitted to the worker queue")
	}
}

// TestFairAbstractCancelMidFlight: dropping the connection mid-check
// cancels the fair-abstract pipeline cooperatively (it is ctx-plumbed
// through the kernels and the Streett search), and a storm of abandoned
// requests leaks no goroutines.
func TestFairAbstractCancelMidFlight(t *testing.T) {
	s, hs := newTestServer(t, serve.Config{Workers: 4, QueueDepth: 200})
	data, _ := json.Marshal(slowFairAbstract(true, 0))

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/check/fair-abstract", bytes.NewReader(data))
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for s.Trace().Gauges()["serve.inflight"] < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded despite mid-flight cancel")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Trace().Counters()["serve.cancelled"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("serve.cancelled counter never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitFlightVerdict(t, s, "fair-abstract", "cancelled")

	// Abandoned-request storm: everything unwinds, no goroutine sticks.
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, ccancel := context.WithTimeout(context.Background(), time.Duration(2+i%20)*time.Millisecond)
			defer ccancel()
			r, _ := http.NewRequestWithContext(cctx, http.MethodPost, hs.URL+"/v1/check/fair-abstract", bytes.NewReader(data))
			if resp, err := http.DefaultClient.Do(r); err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+10 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: before=%d now=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after cancelled storm: %v", err)
	}
}

// TestFairAbstractSheds429: the endpoint sits behind the same bounded
// queue as every other check route.
func TestFairAbstractSheds429(t *testing.T) {
	s, hs := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 1})
	var got [8]int
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(slowFairAbstract(true, 300))
			resp, err := http.Post(hs.URL+"/v1/check/fair-abstract", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			got[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Errorf("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	var shed, served int
	for _, code := range got {
		switch code {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK, http.StatusGatewayTimeout:
			served++
		default:
			t.Fatalf("unexpected status %d (all: %v)", code, got)
		}
	}
	if shed == 0 || served == 0 {
		t.Fatalf("burst of 8 on capacity 2: shed=%d served=%d (%v)", shed, served, got)
	}
	if s.Trace().Counters()["serve.shed"] != int64(shed) {
		t.Fatalf("serve.shed = %d, want %d", s.Trace().Counters()["serve.shed"], shed)
	}
}
