package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestPortfolioReportHitSkipsPipelines: a replayed portfolio report is
// served from the report cache alone. Binding its properties to
// pipeline cells happens only on a miss, so replays neither count
// pipeline-LRU hits nor refresh its recency.
func TestPortfolioReportHitSkipsPipelines(t *testing.T) {
	s := New(Config{})
	body, err := json.Marshal(PortfolioRequest{
		System: "init idle\nidle request busy\nbusy result idle\nbusy reject idle\n",
		LTLs:   []string{"G F result", "G F request"},
		Omegas: []string{"( request result ) ^w"},
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func() string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check/portfolio", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Header().Get(CacheHeader)
	}
	if got := post(); got != "miss" {
		t.Fatalf("cold portfolio: cache header %q, want miss", got)
	}
	before := s.pipelines.Stats()
	for i := 0; i < 3; i++ {
		if got := post(); got != "hit" {
			t.Fatalf("replay %d: cache header %q, want hit", i, got)
		}
	}
	if after := s.pipelines.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("report hits touched the pipeline LRU: hits %d -> %d, misses %d -> %d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

// TestBodyKeyFraming: the request-bytes index keys a body as hashKey
// keys the endpoint name and the body's text, so moving bytes between
// the two parts changes the key.
func TestBodyKeyFraming(t *testing.T) {
	for _, tc := range []struct{ endpoint, body string }{
		{"all", `{"system":"init s0\ns0 a s0\n","ltl":"G a"}`},
		{"all", ""},
		{"", "all"},
	} {
		if got, want := bodyKey(tc.endpoint, []byte(tc.body)), hashKey(tc.endpoint, tc.body); got != want {
			t.Errorf("bodyKey(%q, %q) = %s, hashKey = %s", tc.endpoint, tc.body, got, want)
		}
	}
	if bodyKey("all", []byte("x")) == bodyKey("al", []byte("lx")) {
		t.Error("bodyKey(all, x) = bodyKey(al, lx)")
	}
}
