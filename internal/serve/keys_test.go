package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"relive/internal/serve"
	"relive/internal/store"
)

// TestGoldenReportKeys pins the report key and the system key of one
// request per check endpoint. Report keys address the report LRU, the
// persistent store and the router's coalescing cells, so a change to
// any of them turns every warm store volume cold: these hex strings may
// only change together with a deliberate, documented key migration.
// The report key is read from the flight recorder, the system key from
// the store's system artifact, so the test sees exactly what the server
// keys under.
func TestGoldenReportKeys(t *testing.T) {
	const (
		sysKey      = "64781e156e6478ec804a47fa94ea9de67559ae241941e0bce57a5029653a3cd5"
		omegaSysKey = "19d6e1364e1205d0ff0e8d38e4c0259dcecec75c3dadbfd5ae1c6bb7a8eb8cff"
	)
	// The respelled system differs from serverText only in whitespace and
	// comments, and its LTL only in spelling: both canonicalize away.
	respelled := "# the paper's server\ninit   idle\n\nidle request  busy\nbusy result idle\nbusy reject idle\n"
	cases := []struct {
		name, endpoint string
		body           any
		rkey, sysKey   string
	}{
		{"all", "all", serve.CheckRequest{System: serverText, LTL: "G F result"},
			"c848db0f254a6fb510d090d71480ef259e087e8617909c86f2be9d167e8eeb3f", sysKey},
		{"all-respelled", "all", serve.CheckRequest{System: respelled, LTL: "G (F (result))"},
			"c848db0f254a6fb510d090d71480ef259e087e8617909c86f2be9d167e8eeb3f", sysKey},
		{"liveness", "liveness", serve.CheckRequest{System: serverText, LTL: "G F result"},
			"2c3ac39d0ec2f868cc6418e7a07128ba2e394e7422858b8d127facd3265c9ea4", sysKey},
		{"safety", "safety", serve.CheckRequest{System: serverText, LTL: "G F result"},
			"06f83b365a3e103a5d87b14066ac61833ed2ac9a99c784a6e7301dcaf7a1b40f", sysKey},
		{"satisfies", "satisfies", serve.CheckRequest{System: serverText, LTL: "G F result"},
			"42be4ab154b890f4c3bc123c06e4ba7c2c4e6cf9f830aefa6fc3317008e61670", sysKey},
		{"omega", "all", serve.CheckRequest{System: "init s0\ns0 a s0\ns0 b s0\n", Omega: "( a b ) ^w"},
			"286cf0fb8a016572db155c5ce4b97279890faf7759272be0fb0547e915acae5f", omegaSysKey},
		{"portfolio", "portfolio", serve.PortfolioRequest{System: serverText,
			LTLs: []string{"G F result", "G F request"}, Omegas: []string{"( request result ) ^w"}},
			"01d9142096eba2e509739c3ab847f3c2e2e4448fedbfb41b90b45497acc2e795", sysKey},
		{"abstraction", "abstraction", serve.AbstractionRequest{System: serverText,
			Hom: "request=>request, result=>result, reject=>reject", Eta: "G F ( result | reject )"},
			"529268ef69eaf3f77a36908e580fba204da9fa9a81b39176247821b97512ee13", sysKey},
		{"fair-abstract", "fair-abstract", fairAbstractFixture("strong"),
			"80e13a131e16a703c2857b973cb2c8def3236fe09c885a1327626a3c164c8aa0", sysKey},
		{"statistical", "statistical", serve.StatisticalRequest{System: serverText, LTL: "G F result", Seed: 7},
			"2a3eba38109c6e37e0ea4c2cbc1740bee53d499dab7d245aaac47013bab1e9d8", sysKey},
		{"statistical-defaults", "statistical", serve.StatisticalRequest{System: serverText, LTL: "G F result",
			Seed: 7, Samples: 400, Steps: 256, Confidence: 0.99},
			"2a3eba38109c6e37e0ea4c2cbc1740bee53d499dab7d245aaac47013bab1e9d8", sysKey},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := serve.New(serve.Config{Store: st})
			data, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check/"+tc.endpoint, bytes.NewReader(data)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			records := s.FlightRecords()
			if len(records) == 0 {
				t.Fatal("no flight record")
			}
			if got := records[0].Hash; got != tc.rkey {
				t.Errorf("report key %s, want %s", got, tc.rkey)
			}
			if _, ok := st.Get("system", tc.sysKey); !ok {
				t.Errorf("no system artifact under %s", tc.sysKey)
			}
		})
	}
}
