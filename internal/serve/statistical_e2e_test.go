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
	"relive/internal/ltl"
	"relive/internal/serve"
	"relive/internal/store"
	"relive/internal/ts"
)

// The /v1/check/statistical side of the e2e harness: served sampled
// verdicts equal direct core calls (the report is a deterministic
// function of the normalized request, so equality is byte-level),
// replays from the report LRU and the persistent store are
// bit-identical under a fixed seed, explicit-default budgets coalesce
// with unset ones, mid-check cancellation unwinds without leaking
// goroutines, and malformed budgets are rejected at decode time.

// brokenServerText is the paper's Figure 3 variant: reject enters a
// sink loop, so "G F result" fails on almost all random runs and the
// sampler finds a sound counterexample.
const brokenServerText = `init broken
broken request busy
busy result broken
busy reject stuck
stuck no stuck
`

func statFixture(seed int64) serve.StatisticalRequest {
	return serve.StatisticalRequest{
		System: serverText,
		LTL:    "G F result",
		Seed:   seed,
	}
}

// slowStatistical is a statistical request whose sampling sweep runs
// long enough for mid-flight cancellation to land: the budget is at the
// work cap and the walks never settle (the 2500 steps after the prefix
// cannot visit a 4000-state bottom SCC), so each walk stops at step
// 2500 and the sweep walks 5M steps.
func slowStatistical(noCache bool, timeoutMS int) serve.StatisticalRequest {
	return serve.StatisticalRequest{
		System:    bigSystemText(4000),
		LTL:       slowLTL,
		Samples:   2000,
		Steps:     5000,
		TimeoutMS: timeoutMS,
		NoCache:   noCache,
	}
}

// TestStatisticalEndpointVerdicts: served sampled verdicts on the
// paper's correct and broken servers are byte-identical to direct core
// checks with the same normalized options, and pin the intended
// holds/fails asymmetry.
func TestStatisticalEndpointVerdicts(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	for _, tc := range []struct {
		name, sysText, verdict string
	}{
		{"correct server", serverText, core.StatVerdictHolds},
		{"broken server", brokenServerText, core.StatVerdictFails},
	} {
		sys, err := ts.ParseString(tc.sysText)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ltl.Parse("G F result")
		if err != nil {
			t.Fatal(err)
		}
		// The handler runs the decoder-normalized request; StatOptions{}
		// defaults to the same budget, and Workers never changes the
		// report.
		want, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), core.FromFormula(f, nil), core.StatOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		req := serve.StatisticalRequest{System: tc.sysText, LTL: "G F result", Seed: 3}
		status, _, body := postJSON(t, hs.URL+"/v1/check/statistical", req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, status, body)
		}
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSpace(body), wantBytes) {
			t.Fatalf("%s: served body differs from direct core check\nserved: %s\nlocal:  %s",
				tc.name, body, wantBytes)
		}
		var rep core.StatisticalReport
		decodeInto(t, body, &rep)
		if rep.Verdict != tc.verdict {
			t.Fatalf("%s: verdict %q, want %q", tc.name, rep.Verdict, tc.verdict)
		}
		if !rep.Statistical {
			t.Fatalf("%s: served report not marked statistical", tc.name)
		}
		if tc.verdict == core.StatVerdictFails && len(rep.CounterexampleLoop) == 0 {
			t.Fatalf("%s: fails verdict without a sampled counterexample", tc.name)
		}
	}
}

// TestStatisticalCacheReplaysBitIdentical: under a fixed seed the cold
// body, the report-LRU replay, the respelled structural hit, the
// explicit-default coalescing hit, and the persistent-store replay on a
// fresh server over the same volume are all byte-identical; a different
// seed and no_cache both miss.
func TestStatisticalCacheReplaysBitIdentical(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := serve.New(serve.Config{Store: st1})
	hs1 := httptest.NewServer(s1.Handler())
	defer hs1.Close()

	req := statFixture(7)
	status, hdr, cold := postJSON(t, hs1.URL+"/v1/check/statistical", req)
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("cold: status %d header %q: %s", status, hdr, cold)
	}
	status, hdr, warm := postJSON(t, hs1.URL+"/v1/check/statistical", req)
	if status != http.StatusOK || hdr != "hit" {
		t.Fatalf("report-LRU replay: status %d header %q", status, hdr)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("report-LRU replay differs from cold run:\ncold %s\nwarm %s", cold, warm)
	}

	// Different spelling of the same system and formula: structural keys
	// still hit the same report.
	respelled := req
	respelled.System = "# same system\n" + strings.ReplaceAll(serverText, "\n", "\n\n")
	respelled.LTL = "G (F (result))"
	status, hdr, re := postJSON(t, hs1.URL+"/v1/check/statistical", respelled)
	if status != http.StatusOK || hdr != "hit" {
		t.Fatalf("respelled: status %d header %q (want structural cache hit)", status, hdr)
	}
	if !bytes.Equal(cold, re) {
		t.Fatal("respelled hit differs from cold run")
	}

	// Explicit defaults coalesce with unset fields: the decoder
	// normalizes the budget before the request is keyed.
	explicit := req
	explicit.Samples = 400
	explicit.Steps = 256
	explicit.Confidence = 0.99
	status, hdr, ex := postJSON(t, hs1.URL+"/v1/check/statistical", explicit)
	if status != http.StatusOK || hdr != "hit" {
		t.Fatalf("explicit defaults: status %d header %q (want coalesced hit)", status, hdr)
	}
	if !bytes.Equal(cold, ex) {
		t.Fatal("explicit-default hit differs from cold run")
	}

	// A different seed is a different key and a different sampling run.
	status, hdr, other := postJSON(t, hs1.URL+"/v1/check/statistical", statFixture(8))
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("different seed: status %d header %q, want a cold run", status, hdr)
	}
	var coldRep, otherRep core.StatisticalReport
	decodeInto(t, cold, &coldRep)
	decodeInto(t, other, &otherRep)
	if otherRep.Seed != 8 || coldRep.Seed != 7 {
		t.Fatalf("seeds not carried through: %d, %d", coldRep.Seed, otherRep.Seed)
	}

	status, hdr, _ = postJSON(t, hs1.URL+"/v1/check/statistical",
		serve.StatisticalRequest{System: req.System, LTL: req.LTL, Seed: req.Seed, NoCache: true})
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
	status, hdr, stored := postJSON(t, hs2.URL+"/v1/check/statistical", req)
	if status != http.StatusOK || hdr != "hit" {
		t.Fatalf("store replay: status %d header %q", status, hdr)
	}
	if !bytes.Equal(cold, stored) {
		t.Fatalf("store replay differs from cold run:\ncold %s\nstore %s", cold, stored)
	}
	if s2.Trace().Counters()["serve.store.report_hits"] < 1 {
		t.Fatal("store hit not counted on the fresh server")
	}
}

// TestStatisticalBadRequests: malformed bodies and out-of-cap budgets
// are rejected at decode time with 400 "bad_request".
func TestStatisticalBadRequests(t *testing.T) {
	s, hs := newTestServer(t, serve.Config{})
	cases := []struct {
		name string
		body string
	}{
		{"no system", `{"ltl":"G F a"}`},
		{"no property", `{"system":"init s\ns a s\n"}`},
		{"both properties", `{"system":"init s\ns a s\n","ltl":"G a","omega":"( a ) ^w"}`},
		{"bad ltl", `{"system":"init s\ns a s\n","ltl":"G ("}`},
		{"negative samples", `{"system":"init s\ns a s\n","ltl":"G a","samples":-1}`},
		{"samples over cap", `{"system":"init s\ns a s\n","ltl":"G a","samples":100001}`},
		{"steps over cap", `{"system":"init s\ns a s\n","ltl":"G a","steps":65537}`},
		{"confidence one", `{"system":"init s\ns a s\n","ltl":"G a","confidence":1}`},
		{"work over cap", `{"system":"init s\ns a s\n","ltl":"G a","samples":100000,"steps":101}`},
		{"unknown field", `{"system":"init s\ns a s\n","ltl":"G a","sample":10}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/v1/check/statistical", "application/json", strings.NewReader(tc.body))
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
}

// TestStatisticalCancelMidFlight: dropping the connection mid-sweep
// cancels the sampling workers cooperatively, and a storm of abandoned
// requests leaks no goroutines.
func TestStatisticalCancelMidFlight(t *testing.T) {
	s, hs := newTestServer(t, serve.Config{Workers: 4, QueueDepth: 200})
	data, _ := json.Marshal(slowStatistical(true, 0))

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/check/statistical", bytes.NewReader(data))
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
	waitFlightVerdict(t, s, "statistical", "cancelled")

	// Abandoned-request storm: everything unwinds, no goroutine sticks.
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, ccancel := context.WithTimeout(context.Background(), time.Duration(2+i%20)*time.Millisecond)
			defer ccancel()
			r, _ := http.NewRequestWithContext(cctx, http.MethodPost, hs.URL+"/v1/check/statistical", bytes.NewReader(data))
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

// TestStatisticalMetricsExported: a served statistical check shows up
// in the sampling counters and the per-endpoint latency histogram on
// /metrics.
func TestStatisticalMetricsExported(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	if status, _, body := postJSON(t, hs.URL+"/v1/check/statistical", statFixture(1)); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"relive_mc_samples_total",
		"relive_mc_settled_total",
		"relive_mc_hits_total",
		"relive_mc_steps_total",
		`relive_serve_request_seconds_bucket{endpoint="statistical"`,
		`relive_check_phase_seconds_bucket{phase="sampling"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics does not contain %q", want)
		}
	}
}
