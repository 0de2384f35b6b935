package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"relive/internal/ltl"
	"relive/internal/serve"
	"relive/internal/ts"
)

// testScale shrinks every fill and warm-up so a whole run takes about a
// second.
const testScale = 16

func build(w *workload, seed int64) schedule {
	return w.build(seed, 0.2, w.MaxRate, testScale)
}

func allRequests(s schedule) []request {
	return append(append(append([]request(nil), s.Fill...), s.Warm...), s.Run...)
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b, c := allRequests(build(w, 1)), allRequests(build(w, 1)), allRequests(build(w, 2))
		if len(a) != len(b) {
			t.Fatalf("%s: seed 1 built %d and then %d requests", w.Name, len(a), len(b))
		}
		for i := range a {
			x, y := a[i], b[i]
			if x.Endpoint != y.Endpoint || !bytes.Equal(x.Body, y.Body) || x.At != y.At ||
				x.Pair != y.Pair || x.Spell != y.Spell || x.Group != y.Group || x.Canon != y.Canon {
				t.Fatalf("%s: request %d differs between two builds with seed 1", w.Name, i)
			}
		}
		same := 0
		for i := range c {
			if i < len(a) && bytes.Equal(a[i].Body, c[i].Body) {
				same++
			}
		}
		if same > len(c)/2 {
			t.Errorf("%s: seeds 1 and 2 share %d of %d request bodies", w.Name, same, len(c))
		}
	}
}

// structuralKey is what the service caches a generated request under:
// endpoint, canonical system, canonical properties and sampling seed.
func structuralKey(t *testing.T, r request) string {
	t.Helper()
	body, err := decodeRequest(r.Endpoint, r.Body)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ts.ParseString(body.system)
	if err != nil {
		t.Fatal(err)
	}
	key := r.Endpoint + "\x00" + sys.FormatString()
	for _, f := range body.formulas {
		phi, err := ltl.Parse(f)
		if err != nil {
			t.Fatal(err)
		}
		key += "\x00" + phi.String()
	}
	if r.Endpoint == "statistical" {
		sr, err := serve.DecodeStatisticalRequest(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		key += "\x00" + strconv.FormatInt(sr.Seed, 10)
	}
	return key
}

// Distinct bodies never share a cache key, and only the cluster's
// re-reads and coalescing pairs send one body twice.
func TestColdPoolsHaveNoDuplicateKeys(t *testing.T) {
	for _, name := range []string{"cold-exact", "sampled", "cluster-store"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		bodies, keys := map[string]bool{}, map[string]bool{}
		for i, r := range allRequests(build(w, 1)) {
			if r.Fixture != "" {
				continue
			}
			if bodies[string(r.Body)] {
				if name != "cluster-store" {
					t.Fatalf("%s: request %d repeats an earlier body", name, i)
				}
				continue
			}
			bodies[string(r.Body)] = true
			k := structuralKey(t, r)
			if keys[k] {
				t.Fatalf("%s: request %d repeats an earlier key:\n%s", name, i, r.Body)
			}
			keys[k] = true
		}
		if len(keys) < 100 {
			t.Fatalf("%s: only %d distinct keys", name, len(keys))
		}
	}
}

func TestQuantileRefusesP99BelowThousandSamples(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := quantile(xs, 0.99, minTail); err == nil {
		t.Fatal("p99 of 999 samples was accepted")
	}
	xs = append(xs, 999)
	if v, err := quantile(xs, 0.99, minTail); err != nil || v != 989 {
		t.Fatalf("p99 of 0..999 = %v, %v; want 989", v, err)
	}
	if v, err := quantile(xs[:3], 0.5, minTail); err != nil || v != 1 {
		t.Fatalf("median of 0, 1, 2 = %v, %v", v, err)
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// answer posts each request to a fresh in-process server and returns
// the answered outcomes.
func answer(t *testing.T, reqs []request) []*outcome {
	t.Helper()
	h := serve.New(serve.Config{}).Handler()
	var outs []*outcome
	for i := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check/"+reqs[i].Endpoint, bytes.NewReader(reqs[i].Body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", reqs[i].Fixture, rec.Code, rec.Body)
		}
		outs = append(outs, &outcome{req: &reqs[i], status: rec.Code, body: rec.Body.Bytes()})
	}
	return outs
}

// edit rewrites one field of a JSON body.
func edit(t *testing.T, body []byte, field string, value any) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m[field] = value
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestVerdictCheckerCatchesPlantedErrors(t *testing.T) {
	reqs := fixtures(&groups{}, "all", "safety", "statistical")
	outs := answer(t, reqs)
	if errs := checkAnswers([][]*outcome{outs}); len(errs) != 0 {
		t.Fatalf("the service's own answers were flagged:\n%s", strings.Join(errs, "\n"))
	}
	byName := map[string]*outcome{}
	for _, o := range outs {
		byName[o.req.Fixture] = o
	}
	// "result result" never happens in a row in Figures 2 and 3, so a
	// loop of it is no behavior.
	notBehavior := []string{"result", "result"}
	cases := []struct {
		name, fixture, field string
		value                any
	}{
		{"flipped verdict", "fig2/all", "relativeLiveness", false},
		{"flipped verdict against Theorem 4.7", "fig3/all", "satisfied", true},
		{"corrupted counterexample", "fig3/all", "counterexampleLoop", notBehavior},
		{"corrupted safety violation", "fig2/safety", "violationLoop", notBehavior},
		{"corrupted sampled counterexample", "fig3/statistical", "counterexampleLoop", notBehavior},
		{"flipped sampled verdict", "fig2/statistical", "hits", 0},
	}
	for _, c := range cases {
		good := byName[c.fixture]
		if good == nil {
			t.Fatalf("no %s fixture", c.fixture)
		}
		bad := *good
		bad.body = edit(t, good.body, c.field, c.value)
		if errs := checkAnswers([][]*outcome{{&bad}}); len(errs) == 0 {
			t.Errorf("%s (%s.%s) went unnoticed", c.name, c.fixture, c.field)
		}
	}

	// A hit must replay its miss byte for byte.
	o := *byName["fig2/all"]
	replay := o
	replay.body = append(bytes.TrimSpace(o.body), ' ', '\n')
	if errs := checkAnswers([][]*outcome{{&o, &replay}}); len(errs) == 0 {
		t.Error("a replay with different bytes went unnoticed")
	}
	// A second deployment must agree on verdicts; the edited report is
	// consistent on its own (and not held to the fixture's verdicts).
	plain := *o.req
	plain.Fixture = ""
	o.req = &plain
	other := o
	other.body = edit(t, o.body, "relativeSafety", true)
	other.body = edit(t, other.body, "satisfied", true)
	if errs := checkAnswers([][]*outcome{{&other}}); len(errs) != 0 {
		t.Fatalf("the edited report is not consistent on its own:\n%s", strings.Join(errs, "\n"))
	}
	if errs := checkAnswers([][]*outcome{{&o}, {&other}}); len(errs) == 0 {
		t.Error("a second deployment's different verdict went unnoticed")
	}
}

func TestSmokeRunReportsEveryMetric(t *testing.T) {
	def, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rec, lines, err := run(options{
				workload:  w.Name,
				seed:      1,
				seconds:   0.3,
				trace:     true,
				benchmark: "../../BENCHMARK.json",
				scratch:   t.TempDir(),
				tail:      0,
				scale:     testScale,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Fatalf("correct=%v failed=%d:\n%s", rec.Correct, rec.Failed, strings.Join(lines, "\n"))
			}
			units := map[string]string{}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 3 {
					units[f[0]] = f[2]
				}
			}
			for _, d := range append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...) {
				if m, ok := rec.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: recorded %+v, BENCHMARK.json says unit %s", d.Name, m, d.Unit)
				}
				if units[d.Name] != d.Unit {
					t.Errorf("%s is printed with unit %q, BENCHMARK.json says %s", d.Name, units[d.Name], d.Unit)
				}
			}
			if v := rec.Metrics["serve.accounting_violations"].Value; v != 0 {
				t.Errorf("%v server records have phases plus queue wait above the handler time", v)
			}
			if len(rec.result.Metrics) != len(def.PerLayer) {
				t.Errorf("the traced result carries %d metrics, BENCHMARK.json lists %d per-layer ones",
					len(rec.result.Metrics), len(def.PerLayer))
			}
		})
	}
}

func TestCompareJudgesPairs(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, v := range parent {
		faster[i], slower[i] = v*0.8, v*1.2
	}
	if j := judge(lower, parent, faster); j.verdict != "gain" || j.wins != 10 {
		t.Errorf("a uniformly faster change: %+v", j)
	}
	if j := judge(lower, parent, slower); !j.regressed {
		t.Errorf("a 20%% slower change: %+v", j)
	}
	if j := judge(lower, parent, parent); j.regressed || j.verdict == "gain" {
		t.Errorf("an unchanged change: %+v", j)
	}
	noisy := []float64{5, 15, 7, 13, 10, 6, 14, 8, 12, 10}
	if j := judge(lower, noisy, noisy); !strings.HasPrefix(j.verdict, "unresolved") {
		t.Errorf("a spread above the bound: %+v", j)
	}
}

func TestSliceQuantileDiscountsOneBurst(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 1e6 // one burst, inside the second slice
	}
	whole, err := quantile(xs, 0.99, minTail)
	if err != nil || whole != 1e6 {
		t.Fatalf("whole-window p99 = %v, %v; want the burst", whole, err)
	}
	if v, err := sliceQuantile(xs, 0.99, minTail); err != nil || v != 98 {
		t.Fatalf("slice p99 = %v, %v; want 98", v, err)
	}
	if _, err := sliceQuantile(xs[:999], 0.99, minTail); err == nil {
		t.Fatal("slice p99 of 999 samples was accepted")
	}
}
