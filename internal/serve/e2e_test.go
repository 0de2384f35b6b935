package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relive/internal/core"
	"relive/internal/ltl"
	"relive/internal/serve"
	"relive/internal/ts"
)

// The service-level end-to-end harness: every endpoint is exercised
// over real HTTP (httptest), responses are decoded from the wire, and
// verdicts are checked against direct core calls — the serving layer
// must add transport, caching, and admission without changing a single
// verdict.

// serverText is the paper's request/result example (rlcheck's fixture):
// against "G F result" relative liveness holds, relative safety and
// satisfaction fail.
const serverText = `
init idle
idle request busy
busy result idle
busy reject idle
`

// concreteText is the abstraction example from cmd/rlabstract.
const concreteText = `
init idle
idle request deciding
deciding accept granted
deciding deny denied
granted result idle
denied reject idle
`

// bigSystemText renders an n-state strongly connected system whose full
// check takes hundreds of milliseconds at n≈4000 — the knob the
// timeout, cancellation, shedding, and load tests turn.
func bigSystemText(n int) string {
	var b strings.Builder
	b.WriteString("init s0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "s%d a s%d\n", i, (i+1)%n)
		fmt.Fprintf(&b, "s%d b s%d\n", i, (2*i+1)%n)
		fmt.Fprintf(&b, "s%d c s0\n", i)
	}
	return b.String()
}

const slowLTL = "G (a -> F (b U c))"

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// postJSON posts body (marshaled) and returns the status, the cache
// header, and the raw response bytes.
func postJSON(t *testing.T, url string, body any) (int, string, []byte) {
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
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(serve.CacheHeader), buf.Bytes()
}

func decodeInto(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
}

// TestCheckEndpointsVerdicts: the four single-property endpoints return
// the same verdicts as direct core calls on the paper example.
func TestCheckEndpointsVerdicts(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	sys, err := ts.ParseString(serverText)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ltl.Parse("G F result")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.CheckAll(sys, core.FromFormula(f, nil))
	if err != nil {
		t.Fatal(err)
	}
	req := serve.CheckRequest{System: serverText, LTL: "G F result"}

	status, _, body := postJSON(t, hs.URL+"/v1/check/all", req)
	if status != http.StatusOK {
		t.Fatalf("all: status %d: %s", status, body)
	}
	var rep core.Report
	decodeInto(t, body, &rep)
	if rep.Satisfied != want.Satisfied || rep.RelativeLiveness != want.RelativeLiveness ||
		rep.RelativeSafety != want.RelativeSafety {
		t.Fatalf("served report %+v, core %+v", rep, want)
	}

	status, _, body = postJSON(t, hs.URL+"/v1/check/liveness", req)
	var lr serve.LivenessResponse
	decodeInto(t, body, &lr)
	if status != http.StatusOK || lr.Holds != want.RelativeLiveness {
		t.Fatalf("liveness: status %d holds %v, want %v", status, lr.Holds, want.RelativeLiveness)
	}

	status, _, body = postJSON(t, hs.URL+"/v1/check/safety", req)
	var sr serve.SafetyResponse
	decodeInto(t, body, &sr)
	if status != http.StatusOK || sr.Holds != want.RelativeSafety {
		t.Fatalf("safety: status %d holds %v, want %v", status, sr.Holds, want.RelativeSafety)
	}
	if !sr.Holds && len(sr.ViolationLoop) == 0 {
		t.Fatal("safety violation reported without a witness loop")
	}

	status, _, body = postJSON(t, hs.URL+"/v1/check/satisfies", req)
	var tr serve.SatisfiesResponse
	decodeInto(t, body, &tr)
	if status != http.StatusOK || tr.Holds != want.Satisfied {
		t.Fatalf("satisfies: status %d holds %v, want %v", status, tr.Holds, want.Satisfied)
	}
	if !tr.Holds && len(tr.CounterexampleLoop) == 0 {
		t.Fatal("satisfaction failure reported without a counterexample loop")
	}
}

// TestOmegaPropertyEndpoint: the ω-regex route through the same
// endpoints.
func TestOmegaPropertyEndpoint(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	// All behaviors where every request is eventually followed by result
	// or reject: exactly the behaviors of the example system.
	req := serve.CheckRequest{System: serverText, Omega: "( request result | request reject ) ^w"}
	status, _, body := postJSON(t, hs.URL+"/v1/check/all", req)
	if status != http.StatusOK {
		t.Fatalf("omega check: status %d: %s", status, body)
	}
	var rep core.Report
	decodeInto(t, body, &rep)
	if !rep.Satisfied || !rep.RelativeLiveness || !rep.RelativeSafety {
		t.Fatalf("system must satisfy its own behavior language: %+v", rep)
	}
}

// TestPortfolioEndpoint: one system, several properties, reports in
// request order and equal to individual CheckAll runs.
func TestPortfolioEndpoint(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	props := []string{"G F result", "G F request", "F G reject"}
	status, _, body := postJSON(t, hs.URL+"/v1/check/portfolio",
		serve.PortfolioRequest{System: serverText, LTLs: props})
	if status != http.StatusOK {
		t.Fatalf("portfolio: status %d: %s", status, body)
	}
	var resp serve.PortfolioResponse
	decodeInto(t, body, &resp)
	if len(resp.Reports) != len(props) {
		t.Fatalf("portfolio returned %d reports, want %d", len(resp.Reports), len(props))
	}
	sys, _ := ts.ParseString(serverText)
	for i, text := range props {
		f, err := ltl.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.CheckAll(sys, core.FromFormula(f, nil))
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Reports[i]
		if got.Satisfied != want.Satisfied || got.RelativeLiveness != want.RelativeLiveness ||
			got.RelativeSafety != want.RelativeSafety {
			t.Fatalf("portfolio[%d] %q: %+v, core %+v", i, text, got, want)
		}
	}
}

// TestAbstractionEndpoint: the Sections 6–8 route end to end, against
// the known-good rlabstract fixture.
func TestAbstractionEndpoint(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	status, _, body := postJSON(t, hs.URL+"/v1/check/abstraction", serve.AbstractionRequest{
		System: concreteText,
		Hom:    "request=>request, result=>result, reject=>reject, accept=>, deny=>",
		Eta:    "G F ( result | reject )",
	})
	if status != http.StatusOK {
		t.Fatalf("abstraction: status %d: %s", status, body)
	}
	var resp serve.AbstractionResponse
	decodeInto(t, body, &resp)
	if resp.Conclusion == "" {
		t.Fatal("abstraction response has no conclusion")
	}
	if resp.AbstractStates <= 0 {
		t.Fatalf("abstract system has %d states", resp.AbstractStates)
	}
}

// TestBadRequests: malformed bodies are rejected with 400 and kind
// "bad_request" before any worker slot is spent.
func TestBadRequests(t *testing.T) {
	s, hs := newTestServer(t, serve.Config{})
	cases := []struct {
		name string
		path string
		body string
	}{
		{"not json", "/v1/check/all", `{`},
		{"unknown field", "/v1/check/all", `{"system":"init s\n","ltl":"G a","bogus":1}`},
		{"trailing garbage", "/v1/check/all", `{"system":"init s\n","ltl":"G a"} x`},
		{"missing system", "/v1/check/all", `{"ltl":"G a"}`},
		{"no property", "/v1/check/all", `{"system":"init s\n"}`},
		{"both properties", "/v1/check/all", `{"system":"init s\n","ltl":"G a","omega":"( a ) ^w"}`},
		{"bad system text", "/v1/check/all", `{"system":"no init line here","ltl":"G a"}`},
		{"bad ltl", "/v1/check/all", `{"system":"init s\ns a s\n","ltl":"G ("}`},
		{"bad omega", "/v1/check/all", `{"system":"init s\ns a s\n","omega":"(("}`},
		{"negative timeout", "/v1/check/all", `{"system":"init s\ns a s\n","ltl":"G a","timeout_ms":-1}`},
		{"portfolio empty", "/v1/check/portfolio", `{"system":"init s\ns a s\n"}`},
		{"portfolio empty prop", "/v1/check/portfolio", `{"system":"init s\ns a s\n","ltls":[""]}`},
		{"abstraction no hom", "/v1/check/abstraction", `{"system":"init s\ns a s\n","eta":"G a"}`},
		{"abstraction bad hom", "/v1/check/abstraction", `{"system":"init s\ns a s\n","hom":"zzz=>x","eta":"G a"}`},
		{"abstraction concrete-letter eta", "/v1/check/abstraction", `{"system":"init s\ns a s\ns b s\n","hom":"a=>x, b=>","eta":"G F b"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var er serve.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if er.Kind != "bad_request" {
				t.Fatalf("kind = %q, want bad_request", er.Kind)
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

// TestMethodNotAllowed: the method-scoped mux patterns reject GETs on
// check endpoints.
func TestMethodNotAllowed(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	resp, err := http.Get(hs.URL + "/v1/check/all")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/check/all = %d, want 405", resp.StatusCode)
	}
}

// TestCacheHitBitIdentical: the second identical request is served from
// the report cache — bit-identical body, hit header — and spelling the
// same system differently still hits (structural keying); no_cache
// bypasses.
func TestCacheHitBitIdentical(t *testing.T) {
	s, hs := newTestServer(t, serve.Config{})
	req := serve.CheckRequest{System: serverText, LTL: "G F result"}
	status, hdr, cold := postJSON(t, hs.URL+"/v1/check/all", req)
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("cold: status %d header %q", status, hdr)
	}
	status, hdr, warm := postJSON(t, hs.URL+"/v1/check/all", req)
	if status != http.StatusOK || hdr != "hit" {
		t.Fatalf("warm: status %d header %q", status, hdr)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache hit differs from cold run:\ncold %s\nwarm %s", cold, warm)
	}

	// Same system, different spelling (whitespace, comments, spacing of
	// the formula): structural keys still hit.
	respelled := serve.CheckRequest{
		System: "# same system\n" + strings.ReplaceAll(serverText, "\n", "\n\n"),
		LTL:    "G (F (result))",
	}
	status, hdr, re := postJSON(t, hs.URL+"/v1/check/all", respelled)
	if status != http.StatusOK || hdr != "hit" {
		t.Fatalf("respelled: status %d header %q (want structural cache hit)", status, hdr)
	}
	if !bytes.Equal(cold, re) {
		t.Fatalf("respelled hit differs from cold run")
	}

	status, hdr, _ = postJSON(t, hs.URL+"/v1/check/all",
		serve.CheckRequest{System: serverText, LTL: "G F result", NoCache: true})
	if status != http.StatusOK || hdr != "miss" {
		t.Fatalf("no_cache: status %d header %q, want fresh miss", status, hdr)
	}
	if s.Trace().Counters()["serve.cache.report_hits"] < 2 {
		t.Fatalf("report hit counter = %d, want >= 2", s.Trace().Counters()["serve.cache.report_hits"])
	}
}

// TestHealthzAndDrain: /healthz flips to 503 "draining" after Drain and
// new checks are rejected with kind "draining".
func TestHealthzAndDrain(t *testing.T) {
	s, hs := newTestServer(t, serve.Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, h.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz after drain = %d %q, want 503 draining", resp.StatusCode, h.Status)
	}

	status, _, body := postJSON(t, hs.URL+"/v1/check/all",
		serve.CheckRequest{System: serverText, LTL: "G F result", NoCache: true})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("check while draining = %d: %s", status, body)
	}
	var er serve.ErrorResponse
	decodeInto(t, body, &er)
	if er.Kind != "draining" {
		t.Fatalf("kind = %q, want draining", er.Kind)
	}
}

// TestMetricsEndpoint: after real traffic /metrics exposes the serving
// counters and the per-cache statistics in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	req := serve.CheckRequest{System: serverText, LTL: "G F result"}
	postJSON(t, hs.URL+"/v1/check/all", req)
	postJSON(t, hs.URL+"/v1/check/all", req) // cache hit

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"relive_serve_requests_total",
		"relive_serve_completed_total",
		"relive_serve_cache_report_hits_total",
		`relive_serve_cache_hits_total{cache="report"}`,
		`relive_serve_cache_entries{cache="system"}`,
		"# TYPE relive_serve_requests_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
