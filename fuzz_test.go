package relive_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relive"
	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/genbase"
	"relive/internal/ltl"
	"relive/internal/nfa"
	"relive/internal/oracle"
	"relive/internal/serve"
	"relive/internal/word"
)

// Native fuzz targets for every user-facing parser and for the decision
// pipeline. The parser targets assert the round-trip law — whatever
// parses must print back to a form that reparses to the same printed
// form — and, for formulas, that normalization preserves PNF and lasso
// semantics. The pipeline targets assert the paper's theorem laws on
// arbitrary fuzzer-built inputs: Theorem 4.7 consistency plus oracle
// witness confirmation for CheckAll, and the word-level Lemma 7.5 for
// R̄. Seed corpora live under testdata/fuzz/<FuzzName>/.
//
// Run one target with e.g.:
//
//	go test -run '^$' -fuzz FuzzParseLTL -fuzztime 10s .

// countIffExpansions bounds the only normalizer clause that duplicates
// both operands: nested ⇔ expands exponentially, so adversarial inputs
// are skipped before Normalize can blow up.
func countIffExpansions(text string) int {
	return strings.Count(text, "<->") + strings.Count(text, "<=>") + strings.Count(text, "⇔")
}

func FuzzParseLTL(f *testing.F) {
	f.Add("G F result")
	f.Add("((a U b) R <>c) => []a")
	f.Add("!a & b | c <-> X (a W b)")
	f.Add("true U eps")
	f.Add("□◇result ∧ ¬(a B b)")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 2048 || countIffExpansions(text) > 6 {
			return
		}
		f1, err := relive.ParseLTL(text)
		if err != nil {
			return
		}
		printed := f1.String()
		f2, err := relive.ParseLTL(printed)
		if err != nil {
			t.Fatalf("printed form %q of %q does not reparse: %v", printed, text, err)
		}
		if got := f2.String(); got != printed {
			t.Fatalf("print/parse not idempotent: %q -> %q -> %q", text, printed, got)
		}
		if f1.Size() > 64 {
			return
		}
		n := f1.Normalize()
		if !n.IsPositiveNormalForm() {
			t.Fatalf("Normalize(%q) = %q is not in positive normal form", text, n)
		}
		// Normalization must preserve semantics on a fixed short lasso.
		ab := relive.NewAlphabet("a", "b")
		lab := relive.CanonicalLabeling(ab)
		l := relive.Lasso{
			Prefix: relive.Word{ab.Symbol("a")},
			Loop:   relive.Word{ab.Symbol("a"), ab.Symbol("b")},
		}
		v1, err1 := relive.EvalLasso(f1, l, lab)
		v2, err2 := relive.EvalLasso(n, l, lab)
		if err1 != nil || err2 != nil {
			t.Fatalf("EvalLasso errored on %q: %v / %v", text, err1, err2)
		}
		if v1 != v2 {
			t.Fatalf("Normalize changed semantics of %q on a(ab)^ω: %v vs %v (normalized %q)",
				text, v1, v2, n)
		}
	})
}

func FuzzParseSystem(f *testing.F) {
	f.Add("init idle\nidle lock locked\nlocked unlock idle\n")
	f.Add("# comment\ninit s0\ns0 a s0\ns0 b s1\n")
	f.Add("s0 a s1\ninit s0\n")
	f.Add("init lonely\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 8192 {
			return
		}
		sys, err := relive.ParseSystemString(text)
		if err != nil {
			return
		}
		out := sys.FormatString()
		sys2, err := relive.ParseSystemString(out)
		if err != nil {
			t.Fatalf("formatted system does not reparse: %v\ninput: %q\nformatted:\n%s", err, text, out)
		}
		if got := sys2.FormatString(); got != out {
			t.Fatalf("format/parse not idempotent on %q:\nfirst:\n%s\nsecond:\n%s", text, out, got)
		}
		if sys2.NumStates() != sys.NumStates() {
			t.Fatalf("state count changed on reparse: %d vs %d", sys.NumStates(), sys2.NumStates())
		}
	})
}

func FuzzParseHom(f *testing.F) {
	f.Add("a=>x, b=>x, c=>")
	f.Add("a=>,b=>,c=>c")
	f.Add("a => ε , b => y")
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 1024 {
			return
		}
		src := relive.NewAlphabet("a", "b", "c")
		h, err := relive.ParseHom(src, spec)
		if err != nil {
			return
		}
		out := h.String()
		h2, err := relive.ParseHom(src, out)
		if err != nil {
			t.Fatalf("printed hom %q (from %q) does not reparse: %v", out, spec, err)
		}
		if got := h2.String(); got != out {
			t.Fatalf("print/parse not idempotent: %q -> %q -> %q", spec, out, got)
		}
		// The two parses must agree letter by letter on Σ. Symbols are
		// alphabet-relative (the two destination alphabets intern
		// independently), so compare by name.
		for _, s := range src.Symbols() {
			n1 := h.Dest().Name(h.Image(s))
			n2 := h2.Dest().Name(h2.Image(s))
			if n1 != n2 {
				t.Fatalf("images differ on %s: %q vs %q (spec %q)",
					src.Name(s), n1, n2, spec)
			}
		}
	})
}

// FuzzCheckAll drives the full decision pipeline on fuzzer-built
// (system, formula) pairs: Theorem 4.7 must hold between the three
// verdicts, and every witness must be confirmed exactly by the naive
// oracle. On alphabets
// of at most three letters the oracle additionally does its bounded
// exhaustive search against positive verdicts.
func FuzzCheckAll(f *testing.F) {
	f.Add("init s0\ns0 a s0\ns0 b s1\ns1 a s0\n", "G F a")
	f.Add("init s0\ns0 a s1\ns1 b s1\n", "a U b")
	f.Add("init p\np lock q\nq request p\n", "[] <> request")
	checker := relive.With()
	f.Fuzz(func(t *testing.T, sysText, fText string) {
		if len(sysText) > 2048 || len(fText) > 256 || countIffExpansions(fText) > 4 {
			return
		}
		sys, err := relive.ParseSystemString(sysText)
		if err != nil || sys.NumStates() > 10 {
			return
		}
		fml, err := relive.ParseLTL(fText)
		if err != nil || fml.Size() > 16 {
			return
		}
		p := core.FromFormula(fml, nil)
		rep, err := checker.CheckAll(context.Background(), sys, p)
		if err != nil {
			return // systems without behaviors etc. may legitimately error
		}
		if rep.Satisfied != (rep.RelativeLiveness && rep.RelativeSafety) {
			t.Fatalf("Theorem 4.7 violated: sat=%v rl=%v rs=%v\nsystem:\n%s\nformula: %s",
				rep.Satisfied, rep.RelativeLiveness, rep.RelativeSafety, sys.FormatString(), fml)
		}

		ab := sys.Alphabet()
		op := oracle.FromFormula(fml, nil)
		sat, err := core.Satisfies(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := core.RelativeSafety(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		if !sat.Holds {
			if ok, err := oracle.ConfirmCounterexample(sys, op, sat.Counterexample); err != nil || !ok {
				t.Fatalf("counterexample %s not confirmed (err %v)\nsystem:\n%s\nformula: %s",
					sat.Counterexample.String(ab), err, sys.FormatString(), fml)
			}
		}
		if !rl.Holds {
			if ok, err := oracle.ConfirmBadPrefix(sys, op, rl.BadPrefix); err != nil || !ok {
				t.Fatalf("bad prefix %s not confirmed (err %v)\nsystem:\n%s\nformula: %s",
					rl.BadPrefix.String(ab), err, sys.FormatString(), fml)
			}
		}
		if !rs.Holds {
			if ok, err := oracle.ConfirmSafetyViolation(sys, op, rs.Violation); err != nil || !ok {
				t.Fatalf("violation %s not confirmed (err %v)\nsystem:\n%s\nformula: %s",
					rs.Violation.String(ab), err, sys.FormatString(), fml)
			}
		}
		// Bounded exhaustive search against positive verdicts, only on
		// alphabets small enough to enumerate.
		if len(ab.Symbols()) > 3 {
			return
		}
		words := genbase.Words(ab, 4)
		lassos := genbase.Lassos(ab, 2, 2)
		if rl.Holds {
			if holds, w, err := oracle.RelativeLiveness(sys, op, words); err != nil || !holds {
				t.Fatalf("oracle refutes relative liveness with %s (err %v)\nsystem:\n%s\nformula: %s",
					w.String(ab), err, sys.FormatString(), fml)
			}
		}
		if sat.Holds {
			if holds, cex, err := oracle.Satisfaction(sys, op, lassos); err != nil || !holds {
				t.Fatalf("oracle refutes satisfaction with %s (err %v)\nsystem:\n%s\nformula: %s",
					cex.String(ab), err, sys.FormatString(), fml)
			}
		}
	})
}

// FuzzCheckFairAbstract drives the fairness-within-abstraction decision
// on fuzzer-built (system, homomorphism, fairness notion, property)
// quadruples: every violation witness must be confirmed exactly by the
// paper-literal oracle (a genuine fair run whose abstract image
// violates η), and the verdict must be monotone under fairness
// strengthening (Holds under weak fairness implies Holds under strong,
// since strongly fair runs are a subset of weakly fair ones).
func FuzzCheckFairAbstract(f *testing.F) {
	f.Add("init s0\ns0 a s0\ns0 b s1\ns1 a s0\n", "a=>x, b=>", byte(0), "G F x")
	f.Add("init s0\ns0 a s1\ns1 a s1\ns0 b s0\n", "a=>x, b=>y", byte(1), "F x")
	f.Add("init idle\nidle request busy\nbusy result idle\nbusy reject idle\n",
		"request=>req, result=>ok, reject=>", byte(0), "G F ok")
	checker := relive.With()
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, sysText, homSpec string, fairByte byte, etaText string) {
		if len(sysText) > 2048 || len(homSpec) > 256 || len(etaText) > 256 ||
			countIffExpansions(etaText) > 4 {
			return
		}
		sys, err := relive.ParseSystemString(sysText)
		if err != nil || sys.NumStates() > 8 {
			return
		}
		h, err := relive.ParseHom(sys.Alphabet(), homSpec)
		if err != nil {
			return
		}
		eta, err := relive.ParseLTL(etaText)
		if err != nil || eta.Size() > 12 {
			return
		}
		kind := relive.FairnessStrong
		if fairByte%2 == 1 {
			kind = relive.FairnessWeak
		}
		rep, err := checker.CheckFairAbstract(ctx, sys, h, kind, eta)
		if err != nil {
			return // η not in Σ'-normal form etc.
		}

		// Witness confirmation by the paper-literal oracle.
		okind := oracle.StronglyFair
		if kind == relive.FairnessWeak {
			okind = oracle.WeaklyFair
		}
		op := oracle.FromFormula(eta, ltl.Canonical(h.Dest()))
		if !rep.Holds {
			run := rep.Witness()
			if run == nil {
				t.Fatalf("violation without a witness run\nsystem:\n%s\nhom: %s\nη: %s",
					sys.FormatString(), h, eta)
			}
			el := oracle.EdgeLasso{Prefix: run.Prefix, Loop: run.Loop}
			ok, cerr := oracle.ConfirmFairAbstractViolation(sys, h, okind, op, el)
			if cerr != nil || !ok {
				t.Fatalf("witness not confirmed (err %v)\nsystem:\n%s\nhom: %s\nη: %s\nwitness: %v",
					cerr, sys.FormatString(), h, eta, el)
			}
		}

		// Monotonicity under fairness strengthening.
		weakRep, err := checker.CheckFairAbstract(ctx, sys, h, relive.FairnessWeak, eta)
		if err != nil {
			return
		}
		if weakRep.Holds {
			strongRep, err := checker.CheckFairAbstract(ctx, sys, h, relive.FairnessStrong, eta)
			if err != nil {
				t.Fatalf("strong check errored where weak succeeded: %v", err)
			}
			if !strongRep.Holds {
				t.Fatalf("monotonicity violated: holds weakly but not strongly\nsystem:\n%s\nhom: %s\nη: %s",
					sys.FormatString(), h, eta)
			}
		}
	})
}

// FuzzRbarPreservation fuzzes the word-level Lemma 7.5: for η in
// Σ'-normal form and every concrete lasso x with h(x) defined,
// x ⊨_{λhΣΣ'} R̄(η) ⟺ h(x) ⊨_{λΣ'} η.
func FuzzRbarPreservation(f *testing.F) {
	f.Add("G F x", "a=>x, b=>x, c=>", "a", "ab")
	f.Add("x U y", "a=>x, b=>y, c=>", "c", "cab")
	f.Add("X x", "a=>x, b=>, c=>", "b", "ba")
	f.Fuzz(func(t *testing.T, etaText, homSpec, prefixS, loopS string) {
		if len(etaText) > 256 || len(homSpec) > 256 || countIffExpansions(etaText) > 4 {
			return
		}
		if len(prefixS) > 16 || len(loopS) == 0 || len(loopS) > 16 {
			return
		}
		src := relive.NewAlphabet("a", "b", "c")
		h, err := relive.ParseHom(src, homSpec)
		if err != nil {
			return
		}
		eta, err := relive.ParseLTL(etaText)
		if err != nil || eta.Size() > 16 {
			return
		}
		letters := map[string]bool{}
		for _, n := range h.Dest().Names() {
			letters[n] = true
		}
		if !eta.Normalize().IsSigmaNormalForm(letters) {
			return // Lemma 7.5 assumes η in Σ'-normal form
		}
		rbar, err := relive.Rbar(eta)
		if err != nil {
			return
		}
		toWord := func(s string) (relive.Word, bool) {
			var w relive.Word
			for _, r := range s {
				if r != 'a' && r != 'b' && r != 'c' {
					return nil, false
				}
				w = append(w, src.Symbol(string(r)))
			}
			return w, true
		}
		prefix, ok := toWord(prefixS)
		if !ok {
			return
		}
		loop, ok := toWord(loopS)
		if !ok {
			return
		}
		x := word.MustLasso(prefix, loop)
		hx, ok := h.ApplyLasso(x)
		if !ok {
			return // h(x) undefined: the lemma does not apply
		}
		left, err := relive.EvalLasso(rbar, x, h.Labeling())
		if err != nil {
			t.Fatalf("EvalLasso(R̄(η)): %v", err)
		}
		right, err := relive.EvalLasso(eta, hx, relive.CanonicalLabeling(h.Dest()))
		if err != nil {
			t.Fatalf("EvalLasso(η): %v", err)
		}
		if left != right {
			t.Fatalf("R̄ preservation violated: x=%s h(x)=%s R̄(η)=%v η=%v\nη = %s\nh = %s",
				x.String(src), hx.String(h.Dest()), left, right, eta, h)
		}
	})
}

// FuzzCheckStatistical drives the statistical relative-liveness engine
// on fuzzer-built (system, formula, seed, budget) quadruples from the
// parsers down to the verdict: the check must never panic, the report
// must be well-formed (verdict label, interval, counts), a "fails"
// verdict must carry a witness that is a genuine behavior of the system
// (oracle.IsBehavior) violating the formula under the direct
// ltl.EvalLasso semantics, and a replay with the same seed must marshal
// byte-identically.
func FuzzCheckStatistical(f *testing.F) {
	f.Add("init idle\nidle request busy\nbusy result idle\nbusy reject idle\n", "G F result", int64(0), byte(60))
	f.Add("init broken\nbroken request busy\nbusy result broken\nbusy reject stuck\nstuck no stuck\n", "G F result", int64(7), byte(80))
	f.Add("init a\na step b\n", "F step", int64(1), byte(16))
	f.Fuzz(func(t *testing.T, sysText, ltlText string, seed int64, budget byte) {
		if len(sysText) > 2048 || len(ltlText) > 256 || countIffExpansions(ltlText) > 4 {
			return
		}
		sys, err := relive.ParseSystemString(sysText)
		if err != nil || sys.NumStates() > 8 {
			return
		}
		phi, err := relive.ParseLTL(ltlText)
		if err != nil || phi.Size() > 12 {
			return
		}
		samples := 20 + int(budget)%60
		checker := relive.With(relive.WithSeed(seed), relive.WithSampleBudget(samples, 48))
		p := relive.PropertyFromLTL(phi, nil)
		rep, err := checker.CheckStatistical(context.Background(), sys, p)
		if err != nil {
			t.Fatalf("CheckStatistical: %v", err)
		}
		switch rep.Verdict {
		case relive.StatVerdictHolds, relive.StatVerdictFails, relive.StatVerdictInconclusive:
		default:
			t.Fatalf("unknown verdict %q", rep.Verdict)
		}
		if !rep.Statistical {
			t.Fatalf("report not marked statistical: %+v", rep)
		}
		if rep.CILow < 0 || rep.CIHigh > 1 || rep.CILow > rep.CIHigh {
			t.Fatalf("malformed interval [%v, %v]", rep.CILow, rep.CIHigh)
		}
		if rep.Hits > rep.Settled || rep.Settled > rep.Samples {
			t.Fatalf("malformed counts %d hits / %d settled / %d samples", rep.Hits, rep.Settled, rep.Samples)
		}
		if rep.Holds != (rep.Verdict == relive.StatVerdictHolds) {
			t.Fatalf("Holds=%v but verdict %q", rep.Holds, rep.Verdict)
		}
		if rep.Vacuous && (rep.Samples != 0 || !rep.Holds) {
			t.Fatalf("malformed vacuous report %+v", rep)
		}
		if rep.Verdict == relive.StatVerdictFails {
			l, ok := rep.Witness()
			if !ok || !l.Valid() {
				t.Fatalf("fails verdict without witness")
			}
			if !oracle.IsBehavior(sys, l) {
				t.Fatalf("witness %s is not a behavior of\n%s", l.String(sys.Alphabet()), sys.FormatString())
			}
			sat, err := ltl.EvalLasso(phi, l, ltl.Canonical(sys.Alphabet()))
			if err != nil {
				t.Fatalf("EvalLasso: %v", err)
			}
			if sat {
				t.Fatalf("witness %s satisfies %s", l.String(sys.Alphabet()), phi)
			}
		}
		// Seed-determinism: an identical replay marshals byte-identically.
		want, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := checker.CheckStatistical(context.Background(), sys, p)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		got, err := json.Marshal(rep2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replay diverged:\n%s\nvs\n%s", want, got)
		}
	})
}

// FuzzServeRequest fuzzes the checking service's wire layer: arbitrary
// bytes go through every check endpoint's strict decoder, and
// everything that decodes is (a) checked against the decoder's own
// validation contract, (b) re-marshaled and re-decoded (wire
// round-trip), and (c) for small requests, served end to end through
// the in-process handler, twice, which must answer with a well-formed
// JSON response and never panic or hang; a completed check that did not
// ask for no_cache must replay byte for byte the second time.
func FuzzServeRequest(f *testing.F) {
	f.Add([]byte(`{"system":"init idle\nidle request busy\nbusy result idle\n","ltl":"G F result"}`))
	f.Add([]byte(`{"system":"init s0\ns0 a s0\n","omega":"( a ) ^w"}`))
	f.Add([]byte(`{"system":"init s0\ns0 a s0\n","ltls":["G F a","F a"],"no_cache":true}`))
	f.Add([]byte(`{"system":"init s0\ns0 a s0\ns0 b s1\ns1 a s0\n","hom":"a=>x, b=>","eta":"G F x"}`))
	f.Add([]byte(`{"system":"init s0\ns0 a s0\ns0 b s1\ns1 a s0\n","hom":"a=>x, b=>","fairness":"strong","eta":"G F x"}`))
	f.Add([]byte(`{"system":"init s0\ns0 a s0\n","hom":"a=>x","fairness":"weak","eta":"F x","no_cache":true}`))
	f.Add([]byte(`{"system":"init s0\ns0 a s0\n","ltl":"G a","timeout_ms":100}`))
	f.Add([]byte(`{"system":"","ltl":""}`))
	f.Add([]byte(`not json at all`))

	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8, DefaultTimeout: 2 * time.Second})
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			return
		}
		for _, endpoint := range serve.CheckEndpoints() {
			decode := func(b []byte) error { _, err := serve.DecodeRequest(endpoint, b); return err }
			req, err := serve.DecodeRequest(endpoint, data)
			if err != nil {
				continue
			}
			redecodeServe(t, req, decode)
			// Only small requests are served; each gets a short timeout.
			var small bool
			switch req := req.(type) {
			case *serve.CheckRequest:
				if req.System == "" {
					t.Fatalf("decoder accepted empty system: %q", data)
				}
				if (req.LTL == "") == (req.Omega == "") {
					t.Fatalf("decoder accepted bad ltl/omega combination: %q", data)
				}
				if req.TimeoutMS < 0 {
					t.Fatalf("decoder accepted negative timeout: %q", data)
				}
				small = len(req.System) <= 512 && len(req.LTL)+len(req.Omega) <= 128
				req.TimeoutMS = 1000
			case *serve.PortfolioRequest:
				if req.System == "" || len(req.LTLs)+len(req.Omegas) == 0 {
					t.Fatalf("portfolio decoder accepted invalid request: %q", data)
				}
				small = len(req.System) <= 512 && len(strings.Join(append(req.LTLs, req.Omegas...), "")) <= 128
				req.TimeoutMS = 1000
			case *serve.AbstractionRequest:
				if req.System == "" || req.Hom == "" || req.Eta == "" {
					t.Fatalf("abstraction decoder accepted invalid request: %q", data)
				}
				small = len(req.System) <= 512 && len(req.Hom)+len(req.Eta) <= 128
				req.TimeoutMS = 1000
			case *serve.FairAbstractRequest:
				if req.System == "" || req.Hom == "" || req.Eta == "" {
					t.Fatalf("fair-abstract decoder accepted invalid request: %q", data)
				}
				if req.Fairness != "strong" && req.Fairness != "weak" {
					t.Fatalf("fair-abstract decoder accepted fairness %q: %q", req.Fairness, data)
				}
				small = len(req.System) <= 512 && len(req.Hom)+len(req.Eta) <= 128
				req.TimeoutMS = 1000
			case *serve.StatisticalRequest:
				if req.System == "" {
					t.Fatalf("statistical decoder accepted empty system: %q", data)
				}
				if (req.LTL == "") == (req.Omega == "") {
					t.Fatalf("statistical decoder accepted bad ltl/omega combination: %q", data)
				}
				// The decoder normalizes unset budget fields to the engine
				// defaults before the request is keyed.
				if req.Samples <= 0 || req.Steps <= 0 || req.Confidence <= 0 || req.Confidence >= 1 {
					t.Fatalf("statistical decoder left budget un-normalized: %+v", req)
				}
				small = len(req.System) <= 512 && len(req.LTL)+len(req.Omega) <= 128
				req.TimeoutMS = 1000
				req.Samples, req.Steps = 40, 48
			default:
				t.Fatalf("endpoint %q decoded to unexpected type %T", endpoint, req)
			}
			if small {
				serveTwice(t, handler, "/v1/check/"+endpoint, req)
			}
		}
	})
}

// redecodeServe asserts the wire round-trip law: a decoded request
// re-marshals to bytes its own decoder accepts.
func redecodeServe(t *testing.T, req any, decode func([]byte) error) {
	t.Helper()
	out, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if err := decode(out); err != nil {
		t.Fatalf("re-marshaled request %s rejected by its own decoder: %v", out, err)
	}
}

// serveTwice pushes a decoded request through the in-process handler
// twice, and requires a known status plus a JSON body each time. When
// the first answer is 200 and the request did not set no_cache, the
// second must replay it: 200, the cache-hit header and the same bytes.
func serveTwice(t *testing.T, handler http.Handler, path string, req any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var head struct {
		NoCache bool `json:"no_cache"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		t.Fatalf("unmarshal own request: %v", err)
	}
	first := serveChecked(t, handler, path, body)
	second := serveChecked(t, handler, path, body)
	if first.Code != http.StatusOK || head.NoCache {
		return
	}
	if second.Code != http.StatusOK || second.Header().Get(serve.CacheHeader) != "hit" ||
		!bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("repeat of %s: status %d, cache %q, body %q; first answer %q",
			body, second.Code, second.Header().Get(serve.CacheHeader), second.Body.String(), first.Body.String())
	}
}

// serveChecked serves one request body and requires a known status plus
// a JSON body.
func serveChecked(t *testing.T, handler http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests,
		http.StatusInternalServerError, http.StatusGatewayTimeout:
	default:
		t.Fatalf("unexpected status %d for %s: %s", rec.Code, body, rec.Body.String())
	}
	var v any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("status %d body is not JSON: %q", rec.Code, rec.Body.String())
	}
	return rec
}

// fuzzNFA decodes an NFA over ab from fuzzer bytes: the first byte
// picks the state count, one byte the accepting mask, and each
// remaining byte one transition (from, symbol, to), with symbol 0 as ε.
// The decoding is total, so every input exercises the kernels.
func fuzzNFA(ab *relive.Alphabet, data []byte) *nfa.NFA {
	a := nfa.New(ab)
	if len(data) == 0 {
		return a
	}
	n := 1 + int(data[0])%8
	a.AddStates(n)
	if len(data) > 1 {
		for i := 0; i < n; i++ {
			if data[1]&(1<<(i%8)) != 0 {
				a.SetAccepting(nfa.State(i), true)
			}
		}
	}
	numSyms := ab.Size()
	if len(data) < 3 {
		a.SetInitial(0)
		return a
	}
	for _, b := range data[2:] {
		from := nfa.State(int(b>>5) % n)
		to := nfa.State(int(b>>2&7) % n)
		sym := alphabet.Symbol(int(b) % (numSyms + 1)) // 0 = ε
		a.AddTransition(from, sym, to)
	}
	a.SetInitial(0)
	return a
}

// FuzzAntichainInclusion differ-checks the antichain inclusion kernel
// against the subset-construction reference on fuzzer-built NFA pairs,
// and on Σ* against the right-hand NFA (universality): verdicts must
// match, counterexamples must have the subset route's (minimal) length
// and be genuine members of L(a) \ L(b).
func FuzzAntichainInclusion(f *testing.F) {
	f.Add([]byte{2, 1, 0x4a, 0x91}, []byte{3, 5, 0x22, 0x7f, 0x08})
	f.Add([]byte{1, 1, 0x05}, []byte{1, 0})
	f.Add([]byte{7, 0xaa, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{7, 0x55, 9, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		if len(da) > 64 || len(db) > 64 {
			return // keep the subset reference cheap
		}
		ab := relive.NewAlphabet("a", "b")
		na := fuzzNFA(ab, da)
		nb := fuzzNFA(ab, db)
		// Σ* as a second left operand is universality of nb.
		for _, left := range []*nfa.NFA{na, nfa.SigmaStar(ab)} {
			okS, wS, err := nfa.IncludedCtx(nil, left, nb)
			if err != nil {
				t.Fatalf("subset inclusion: %v", err)
			}
			okA, wA, err := nfa.IncludedAntichainCtx(nil, left, nb)
			if err != nil {
				t.Fatalf("antichain inclusion: %v", err)
			}
			if okS != okA {
				t.Fatalf("inclusion divergence: subset=%v antichain=%v\na=%v\nb=%v", okS, okA, left, nb)
			}
			if !okA {
				if len(wA) != len(wS) {
					t.Fatalf("counterexample length divergence: subset %d, antichain %d\na=%v\nb=%v",
						len(wS), len(wA), left, nb)
				}
				if !left.Accepts(wA) || nb.Accepts(wA) {
					t.Fatalf("antichain counterexample not in L(a)\\L(b): %v\na=%v\nb=%v", wA, left, nb)
				}
			}
		}
	})
}
