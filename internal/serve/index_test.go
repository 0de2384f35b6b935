package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"relive/internal/serve"
)

// The request-bytes index answers a body it has seen, byte for byte,
// from the report its key step named, before the body is decoded. These
// tests pin that it can only ever return what the key path would.

// indexCase is one request per check endpoint that answers 200 on the
// paper's server.
type indexCase struct {
	endpoint string
	body     any
}

func indexCases() []indexCase {
	check := serve.CheckRequest{System: serverText, LTL: "G F result"}
	return []indexCase{
		{"all", check},
		{"liveness", check},
		{"safety", check},
		{"satisfies", check},
		{"portfolio", serve.PortfolioRequest{System: serverText,
			LTLs: []string{"G F result", "G F request"}, Omegas: []string{"( request result ) ^w"}}},
		{"abstraction", serve.AbstractionRequest{System: serverText,
			Hom: "request=>request, result=>result, reject=>reject", Eta: "G F ( result | reject )"}},
		{"fair-abstract", fairAbstractFixture("strong")},
		{"statistical", serve.StatisticalRequest{System: serverText, LTL: "G F result", Seed: 7}},
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// postBytes serves raw body bytes on the handler's goroutine and returns
// the status, the cache header and the response body.
func postBytes(s *serve.Server, endpoint string, body []byte) (int, string, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check/"+endpoint, bytes.NewReader(body)))
	return rec.Code, rec.Header().Get(serve.CacheHeader), rec.Body.Bytes()
}

func bodyHits(s *serve.Server) int64 { return s.Trace().Counters()["serve.cache.body_hits"] }

// TestBodyIndexReplaysKeyPath: on every endpoint, a body sent again is
// answered from the index with the bytes, header and flight record of
// the key path's report hit, and moves serve.cache.body_hits. A
// respelling (leading whitespace) shares the report through the key
// path, and is indexed in turn.
func TestBodyIndexReplaysKeyPath(t *testing.T) {
	for _, tc := range indexCases() {
		t.Run(tc.endpoint, func(t *testing.T) {
			s := serve.New(serve.Config{})
			body := mustMarshal(t, tc.body)
			respelled := append([]byte(" \n"), body...)

			status, hdr, cold := postBytes(s, tc.endpoint, body)
			if status != http.StatusOK || hdr != "miss" {
				t.Fatalf("cold: status %d header %q: %s", status, hdr, cold)
			}
			status, hdr, keyHit := postBytes(s, tc.endpoint, respelled)
			if status != http.StatusOK || hdr != "hit" || !bytes.Equal(keyHit, cold) {
				t.Fatalf("key-path hit: status %d header %q, body equal %v", status, hdr, bytes.Equal(keyHit, cold))
			}
			if n := bodyHits(s); n != 0 {
				t.Fatalf("body_hits = %d after a miss and a respelling, want 0", n)
			}
			keyRecord := s.FlightRecords()[0]

			for i, b := range [][]byte{body, respelled} {
				status, hdr, got := postBytes(s, tc.endpoint, b)
				if status != http.StatusOK || hdr != "hit" || !bytes.Equal(got, cold) {
					t.Fatalf("index hit %d: status %d header %q, body equal %v", i, status, hdr, bytes.Equal(got, cold))
				}
				if n := bodyHits(s); n != int64(i+1) {
					t.Fatalf("body_hits = %d after index hit %d, want %d", n, i, i+1)
				}
				rec := s.FlightRecords()[0]
				if rec.Hash != keyRecord.Hash || rec.CachePath != keyRecord.CachePath || rec.Verdict != keyRecord.Verdict {
					t.Fatalf("index hit record (hash %s, path %s, verdict %s), key-path hit (%s, %s, %s)",
						rec.Hash, rec.CachePath, rec.Verdict, keyRecord.Hash, keyRecord.CachePath, keyRecord.Verdict)
				}
			}
			if n := s.IndexedBodies(); n != 2 {
				t.Fatalf("index holds %d bodies, want 2", n)
			}
		})
	}
}

// TestBodyIndexKeyedByEndpoint: one body is a valid request on five
// endpoints, and each answers it with its own report; no endpoint
// replays another's.
func TestBodyIndexKeyedByEndpoint(t *testing.T) {
	s := serve.New(serve.Config{})
	body := mustMarshal(t, serve.CheckRequest{System: serverText, LTL: "G F result"})
	endpoints := []string{"all", "liveness", "safety", "satisfies", "statistical"}
	cold := map[string][]byte{}
	for _, ep := range endpoints {
		status, hdr, got := postBytes(s, ep, body)
		if status != http.StatusOK || hdr != "miss" {
			t.Fatalf("%s: first answer status %d header %q, want a fresh miss", ep, status, hdr)
		}
		for other, b := range cold {
			if bytes.Equal(b, got) {
				t.Fatalf("%s answered with %s's report", ep, other)
			}
		}
		cold[ep] = got
	}
	for i, ep := range endpoints {
		status, hdr, got := postBytes(s, ep, body)
		if status != http.StatusOK || hdr != "hit" || !bytes.Equal(got, cold[ep]) {
			t.Fatalf("%s: replay status %d header %q, own report %v", ep, status, hdr, bytes.Equal(got, cold[ep]))
		}
		if n := bodyHits(s); n != int64(i+1) {
			t.Fatalf("%s: body_hits = %d, want %d", ep, n, i+1)
		}
	}
}

// TestBodyIndexSkipsNoCacheAndBadRequests: a no_cache body and a body
// answered 400 (by the decoder, the key step or the bind step) are never
// indexed, on any endpoint.
func TestBodyIndexSkipsNoCacheAndBadRequests(t *testing.T) {
	const unknownOmega = "( zzz ) ^w" // zzz is not an action of serverText
	badBind := map[string]any{
		"all":           serve.CheckRequest{System: serverText, Omega: unknownOmega},
		"liveness":      serve.CheckRequest{System: serverText, Omega: unknownOmega},
		"safety":        serve.CheckRequest{System: serverText, Omega: unknownOmega},
		"satisfies":     serve.CheckRequest{System: serverText, Omega: unknownOmega},
		"portfolio":     serve.PortfolioRequest{System: serverText, Omegas: []string{unknownOmega}},
		"abstraction":   serve.AbstractionRequest{System: serverText, Hom: "zzz=>x", Eta: "G F x"},
		"fair-abstract": serve.FairAbstractRequest{System: serverText, Hom: "zzz=>x", Fairness: "strong", Eta: "G F x"},
		"statistical":   serve.StatisticalRequest{System: serverText, Omega: unknownOmega, Seed: 7},
	}
	for _, tc := range indexCases() {
		t.Run(tc.endpoint, func(t *testing.T) {
			s := serve.New(serve.Config{})
			// One body fails each step before the run: decode, key (the
			// system does not parse) and bind.
			bad := [][]byte{
				[]byte(`not json`),
				withFields(t, tc.body, map[string]any{"system": "init idle\nidle request\n"}),
				mustMarshal(t, badBind[tc.endpoint]),
			}
			for i, b := range bad {
				for try := 0; try < 2; try++ {
					if status, _, got := postBytes(s, tc.endpoint, b); status != http.StatusBadRequest {
						t.Fatalf("bad body %d, try %d: status %d, want 400: %s", i, try, status, got)
					}
				}
			}
			if n := s.IndexedBodies(); n != 0 {
				t.Fatalf("index holds %d bodies after 400s, want 0", n)
			}

			noCache := withFields(t, tc.body, map[string]any{"no_cache": true})
			cached := mustMarshal(t, tc.body)
			for i, b := range [][]byte{noCache, cached, noCache} {
				status, hdr, got := postBytes(s, tc.endpoint, b)
				if status != http.StatusOK || hdr != "miss" {
					t.Fatalf("request %d: status %d header %q, want a fresh miss: %s", i, status, hdr, got)
				}
			}
			if n := s.IndexedBodies(); n != 1 {
				t.Fatalf("index holds %d bodies, want only the cached request's", n)
			}
			if n := bodyHits(s); n != 0 {
				t.Fatalf("body_hits = %d, want 0", n)
			}
		})
	}
}

// withFields returns req's JSON with the given fields set.
func withFields(t *testing.T, req any, fields map[string]any) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(mustMarshal(t, req), &m); err != nil {
		t.Fatal(err)
	}
	for k, v := range fields {
		m[k] = v
	}
	return mustMarshal(t, m)
}

// TestBodyIndexEvictedReportFallsBack: an indexed body whose report has
// left the report LRU goes down the key path and is answered with the
// same bytes, as a miss; once the report is back, the index answers it.
func TestBodyIndexEvictedReportFallsBack(t *testing.T) {
	for _, tc := range indexCases() {
		t.Run(tc.endpoint, func(t *testing.T) {
			s := serve.New(serve.Config{ReportEntries: 8})
			body := mustMarshal(t, tc.body)
			_, _, cold := postBytes(s, tc.endpoint, body)
			s.EvictReports()
			if n := s.IndexedBodies(); n != 1 {
				t.Fatalf("eviction changed the index: %d bodies", n)
			}
			status, hdr, got := postBytes(s, tc.endpoint, body)
			if status != http.StatusOK || hdr != "miss" || !bytes.Equal(got, cold) {
				t.Fatalf("after eviction: status %d header %q, body equal %v", status, hdr, bytes.Equal(got, cold))
			}
			if n := bodyHits(s); n != 0 {
				t.Fatalf("body_hits = %d with the report evicted, want 0", n)
			}
			status, hdr, got = postBytes(s, tc.endpoint, body)
			if status != http.StatusOK || hdr != "hit" || !bytes.Equal(got, cold) || bodyHits(s) != 1 {
				t.Fatalf("refilled: status %d header %q, body equal %v, body_hits %d",
					status, hdr, bytes.Equal(got, cold), bodyHits(s))
			}
		})
	}
}

// TestBodyIndexConcurrentRequests: goroutines send the same bodies to
// every endpoint at once, so index probes and fills race with report
// fills; every answer is the reference bytes. Run it under -race.
func TestBodyIndexConcurrentRequests(t *testing.T) {
	cases := indexCases()
	bodies := make([][]byte, len(cases))
	want := make([][]byte, len(cases))
	ref := serve.New(serve.Config{})
	for i, tc := range cases {
		bodies[i] = mustMarshal(t, tc.body)
		status, _, got := postBytes(ref, tc.endpoint, bodies[i])
		if status != http.StatusOK {
			t.Fatalf("%s reference: status %d: %s", tc.endpoint, status, got)
		}
		want[i] = got
	}

	s := serve.New(serve.Config{})
	const goroutines, rounds = 6, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, tc := range cases {
					status, _, got := postBytes(s, tc.endpoint, bodies[i])
					if status != http.StatusOK || !bytes.Equal(got, want[i]) {
						t.Errorf("%s: status %d, reference bytes %v", tc.endpoint, status, bytes.Equal(got, want[i]))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	before := bodyHits(s)
	if status, hdr, got := postBytes(s, "all", bodies[0]); status != http.StatusOK || hdr != "hit" ||
		!bytes.Equal(got, want[0]) || bodyHits(s) != before+1 {
		t.Fatalf("after the race: status %d header %q, body_hits %d → %d", status, hdr, before, bodyHits(s))
	}
}
