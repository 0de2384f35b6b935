package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/fairness"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/serve"
	"relive/internal/ts"
	"relive/internal/word"
)

// The service-level differential suite: randomized request bodies
// travel the full wire path — JSON decode, structural caching,
// admission, the ctx-plumbed pipeline, JSON encode — and the verdicts
// that come back must agree with internal/oracle's naive reference.
// The comparison is asymmetric, as in internal/oracle's own suite:
// a Holds verdict is checked against the oracle's exhaustive bounded
// search (any find would be a real disagreement); a ¬Holds verdict must
// come with a witness the oracle confirms exactly.
var (
	serveSeedFlag  = flag.Int64("serve-seed", 1, "root seed of the randomized service differential suite")
	servePairsFlag = flag.Int("serve-pairs", 120, "number of randomized request bodies per run")
	serveURLFlag   = flag.String("serve-url", "", "run the differential suite against this live rlserve (or router) base URL instead of an in-process server")
)

// translationCap skips rare pathological tableau blowups, as in the
// oracle suite.
const translationCap = 64

func TestServeDifferentialAgainstOracle(t *testing.T) {
	// With -serve-url the suite drives an externally running rlserve —
	// or a shard router, whose answers must be bit-identical to a
	// single node's — over real HTTP; the CI cluster-smoke job uses
	// exactly this to differential-test a 3-backend cluster.
	baseURL := *serveURLFlag
	if baseURL == "" {
		_, hs := newTestServer(t, serve.Config{})
		baseURL = hs.URL
	}
	rng := rand.New(rand.NewSource(*serveSeedFlag))
	ab := alphabet.FromNames("a", "b")
	words := gen.Words(ab, oracle.DefaultBounds().WordLen)
	lassos := gen.Lassos(ab, oracle.DefaultBounds().LassoPrefix, oracle.DefaultBounds().LassoLoop)

	checked, skipped := 0, 0
	for i := 0; i < *servePairsFlag; i++ {
		n := 3 + rng.Intn(4)
		sys := gen.System(rng, ab, n, 0.25+0.35*rng.Float64())
		f := gen.Formula(rng, []string{"a", "b"}, 1+rng.Intn(3))
		pa, _ := ltl.TranslateBuchi(nil, f, ltl.Canonical(ab))
		if pa.NumStates() > translationCap {
			skipped++
			continue
		}
		op := oracle.Property{Formula: f, Auto: pa}
		desc := fmt.Sprintf("pair %d: system\n%sformula %s", i, sys.FormatString(), f)

		status, _, body := postJSON(t, baseURL+"/v1/check/all",
			serve.CheckRequest{System: sys.FormatString(), LTL: f.String()})
		if status != http.StatusOK {
			t.Fatalf("%s\nstatus %d: %s", desc, status, body)
		}
		var rep core.Report
		decodeInto(t, body, &rep)

		if msg := oracleDisagreement(sys, op, rep, words, lassos); msg != "" {
			t.Fatalf("%s\n%s", desc, msg)
		}
		if msg := endpointsDisagree(t, baseURL, sys, f, rep); msg != "" {
			t.Fatalf("%s\n%s", desc, msg)
		}
		if msg := fairAbstractDisagreement(t, baseURL, rng, sys); msg != "" {
			t.Fatalf("%s\n%s", desc, msg)
		}
		if msg := statisticalDisagreement(t, baseURL, *serveSeedFlag+int64(i), sys, f); msg != "" {
			t.Fatalf("%s\n%s", desc, msg)
		}
		checked++
	}
	t.Logf("checked %d randomized bodies (%d tableau skips)", checked, skipped)
}

// fairAbstractDisagreement runs the fair-abstract leg of the service
// differential on a randomized (hom, fairness, η) triple over sys: the
// served body must be byte-identical to a direct core check, a Holds
// verdict must survive the oracle's bounded fair-lasso enumeration, and
// a Fails verdict's witness must be oracle-confirmed exactly.
func fairAbstractDisagreement(t *testing.T, baseURL string, rng *rand.Rand, sys *ts.System) string {
	t.Helper()
	// Round-trip through the wire format first: it drops isolated
	// states, and the local report must describe exactly the system the
	// server parses.
	wire, err := ts.ParseString(sys.FormatString())
	if err != nil {
		return fmt.Sprintf("reparse wire system: %v", err)
	}
	sys = wire
	if sys.Alphabet().Size() == 0 {
		return "" // edge-less system: no concrete alphabet to abstract
	}
	h := gen.Hom(rng, sys.Alphabet(), 0.3)
	if len(h.Dest().Names()) == 0 {
		return "" // ε-only image: no abstract alphabet to write η over
	}
	eta := gen.Formula(rng, h.Dest().Names(), 1+rng.Intn(2))
	kind := fairness.Strong
	okind := oracle.StronglyFair
	if rng.Intn(2) == 1 {
		kind, okind = fairness.Weak, oracle.WeaklyFair
	}
	local, err := core.CheckFairAbstract(context.Background(), core.NewSystemCells(sys), h, kind,
		core.FromFormula(eta, ltl.Canonical(h.Dest())))
	if err != nil {
		return "" // Σ'-normal-form rejection; the wire answers 500 consistently
	}

	status, _, body := postJSON(t, baseURL+"/v1/check/fair-abstract", serve.FairAbstractRequest{
		System:   sys.FormatString(),
		Hom:      h.String(),
		Fairness: core.FairnessKindName(kind),
		Eta:      eta.String(),
	})
	if status != http.StatusOK {
		return fmt.Sprintf("fair-abstract (hom %s, %s, η %s): status %d: %s",
			h, core.FairnessKindName(kind), eta, status, body)
	}
	want, err := json.Marshal(local)
	if err != nil {
		return fmt.Sprintf("marshal local fair-abstract report: %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(body), want) {
		return fmt.Sprintf("served fair-abstract body differs from the direct core check\nserved: %s\nlocal:  %s", body, want)
	}

	op := oracle.FromFormula(eta, ltl.Canonical(h.Dest()))
	bounds := oracle.Bounds{WordLen: 5, LassoPrefix: 2, LassoLoop: 4}
	if local.Holds {
		el, found, err := oracle.FairAbstractViolation(sys, h, okind, op, bounds)
		if err != nil {
			return fmt.Sprintf("oracle.FairAbstractViolation: %v", err)
		}
		if found {
			return fmt.Sprintf("served fair-abstract holds=true (hom %s, %s, η %s) but oracle found fair violation %s",
				h, core.FairnessKindName(kind), eta, el.Word().String(sys.Alphabet()))
		}
	} else {
		run := local.Witness()
		if run == nil {
			return "served fair-abstract holds=false without a witness run"
		}
		ok, err := oracle.ConfirmFairAbstractViolation(sys, h, okind, op,
			oracle.EdgeLasso{Prefix: run.Prefix, Loop: run.Loop})
		if err != nil {
			return fmt.Sprintf("ConfirmFairAbstractViolation: %v", err)
		}
		if !ok {
			return fmt.Sprintf("fair-abstract witness (hom %s, %s, η %s) not confirmed by the oracle",
				h, core.FairnessKindName(kind), eta)
		}
	}
	return ""
}

// statisticalDisagreement runs the statistical leg of the service
// differential: the served sampled body must be byte-identical to a
// direct core check under the same seed (through the in-process LRUs,
// the store, or — with -serve-url — a cluster router and its backends),
// a "fails" witness must be a behavior of the system violating the
// formula under the direct ltl.EvalLasso semantics, and an exact-Holds
// verdict can never coexist with a sampled counterexample.
func statisticalDisagreement(t *testing.T, baseURL string, seed int64, sys *ts.System, f *ltl.Formula) string {
	t.Helper()
	wire, err := ts.ParseString(sys.FormatString())
	if err != nil {
		return fmt.Sprintf("reparse wire system: %v", err)
	}
	sys = wire
	local, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), core.FromFormula(f, nil),
		core.StatOptions{Seed: seed, Samples: 80, Steps: 64})
	if err != nil {
		return fmt.Sprintf("CheckStatistical: %v", err)
	}
	status, _, body := postJSON(t, baseURL+"/v1/check/statistical", serve.StatisticalRequest{
		System:  sys.FormatString(),
		LTL:     f.String(),
		Seed:    seed,
		Samples: 80,
		Steps:   64,
	})
	if status != http.StatusOK {
		return fmt.Sprintf("statistical (seed %d): status %d: %s", seed, status, body)
	}
	want, err := json.Marshal(local)
	if err != nil {
		return fmt.Sprintf("marshal local statistical report: %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(body), want) {
		return fmt.Sprintf("served statistical body differs from the direct core check\nserved: %s\nlocal:  %s", body, want)
	}
	if local.Verdict == core.StatVerdictFails {
		l, ok := local.Witness()
		if !ok {
			return "statistical fails verdict without a witness"
		}
		if !oracle.IsBehavior(sys, l) {
			return fmt.Sprintf("sampled counterexample %s is not a behavior", l.String(sys.Alphabet()))
		}
		sat, err := ltl.EvalLasso(f, l, ltl.Canonical(sys.Alphabet()))
		if err != nil {
			return fmt.Sprintf("EvalLasso: %v", err)
		}
		if sat {
			return fmt.Sprintf("sampled counterexample %s satisfies %s", l.String(sys.Alphabet()), f)
		}
	}
	return ""
}

// oracleDisagreement compares one served report with the bounded
// oracle; "" means agreement.
func oracleDisagreement(sys *ts.System, op oracle.Property, rep core.Report, words []word.Word, lassos []word.Lasso) string {
	ab := sys.Alphabet()

	if rep.Satisfied {
		holds, cex, err := oracle.Satisfaction(sys, op, lassos)
		if err != nil {
			return fmt.Sprintf("oracle.Satisfaction: %v", err)
		}
		if !holds {
			return fmt.Sprintf("served satisfied=true but oracle found behavior %s outside P", cex.String(ab))
		}
	} else {
		l, err := lassoFromNames(ab, rep.Counterexample, rep.CounterexampleLp)
		if err != nil {
			return fmt.Sprintf("served counterexample: %v", err)
		}
		ok, err := oracle.ConfirmCounterexample(sys, op, l)
		if err != nil {
			return fmt.Sprintf("ConfirmCounterexample: %v", err)
		}
		if !ok {
			return fmt.Sprintf("served counterexample %s not confirmed", l.String(ab))
		}
	}

	if rep.RelativeLiveness {
		holds, w, err := oracle.RelativeLiveness(sys, op, words)
		if err != nil {
			return fmt.Sprintf("oracle.RelativeLiveness: %v", err)
		}
		if !holds {
			return fmt.Sprintf("served relativeLiveness=true but oracle found bad prefix %s", w.String(ab))
		}
	} else {
		w, err := wordFromNames(ab, rep.BadPrefix)
		if err != nil {
			return fmt.Sprintf("served bad prefix: %v", err)
		}
		ok, err := oracle.ConfirmBadPrefix(sys, op, w)
		if err != nil {
			return fmt.Sprintf("ConfirmBadPrefix: %v", err)
		}
		if !ok {
			return fmt.Sprintf("served bad prefix %s not confirmed", w.String(ab))
		}
	}

	if rep.RelativeSafety {
		holds, v, err := oracle.RelativeSafety(sys, op, lassos)
		if err != nil {
			return fmt.Sprintf("oracle.RelativeSafety: %v", err)
		}
		if !holds {
			return fmt.Sprintf("served relativeSafety=true but oracle found violation %s", v.String(ab))
		}
	} else {
		l, err := lassoFromNames(ab, rep.Violation, rep.ViolationLoop)
		if err != nil {
			return fmt.Sprintf("served violation: %v", err)
		}
		ok, err := oracle.ConfirmSafetyViolation(sys, op, l)
		if err != nil {
			return fmt.Sprintf("ConfirmSafetyViolation: %v", err)
		}
		if !ok {
			return fmt.Sprintf("served violation %s not confirmed per Definition 4.2", l.String(ab))
		}
	}
	return ""
}

// endpointsDisagree cross-checks the typed single-verdict endpoints
// against the /v1/check/all report for the same body.
func endpointsDisagree(t *testing.T, baseURL string, sys *ts.System, f *ltl.Formula, rep core.Report) string {
	t.Helper()
	req := serve.CheckRequest{System: sys.FormatString(), LTL: f.String()}

	status, _, body := postJSON(t, baseURL+"/v1/check/liveness", req)
	var lr serve.LivenessResponse
	decodeInto(t, body, &lr)
	if status != http.StatusOK || lr.Holds != rep.RelativeLiveness {
		return fmt.Sprintf("liveness endpoint: status %d holds %v, report %v", status, lr.Holds, rep.RelativeLiveness)
	}

	status, _, body = postJSON(t, baseURL+"/v1/check/safety", req)
	var sr serve.SafetyResponse
	decodeInto(t, body, &sr)
	if status != http.StatusOK || sr.Holds != rep.RelativeSafety {
		return fmt.Sprintf("safety endpoint: status %d holds %v, report %v", status, sr.Holds, rep.RelativeSafety)
	}

	status, _, body = postJSON(t, baseURL+"/v1/check/satisfies", req)
	var tr serve.SatisfiesResponse
	decodeInto(t, body, &tr)
	if status != http.StatusOK || tr.Holds != rep.Satisfied {
		return fmt.Sprintf("satisfies endpoint: status %d holds %v, report %v", status, tr.Holds, rep.Satisfied)
	}
	return ""
}

// wordFromNames maps the wire rendering (action names) back to symbols.
func wordFromNames(ab *alphabet.Alphabet, names []string) (word.Word, error) {
	w := make(word.Word, len(names))
	for i, name := range names {
		sym, ok := ab.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown action %q in served witness", name)
		}
		w[i] = sym
	}
	return w, nil
}

func lassoFromNames(ab *alphabet.Alphabet, prefix, loop []string) (word.Lasso, error) {
	p, err := wordFromNames(ab, prefix)
	if err != nil {
		return word.Lasso{}, err
	}
	l, err := wordFromNames(ab, loop)
	if err != nil {
		return word.Lasso{}, err
	}
	return word.NewLasso(p, l)
}
