package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/serve"
	"relive/internal/ts"
	"relive/internal/word"
)

// The verdict checker. Every answer a run received is checked against
// references that share no decision code with internal/core: witnesses
// of failed verdicts are confirmed exactly by internal/oracle, sampled
// counterexamples by the oracle's behavior test and ltl.EvalLasso,
// CheckAll reports must obey Theorem 4.7 (satisfied ⟺ RL ∧ RS), and the
// paper's figures must get the verdicts the paper states. Answers that
// the service keys alike must be byte-identical, and line-reordered
// respellings must agree with the canonical text on every verdict.

// fixtureWant holds the verdict fields the paper fixes for each fixture
// (Figures 2, 3 and 4 with □◇result): Figure 2 does not satisfy it but
// it is live relative to Figure 2 (so, by Theorem 4.7, not relatively
// safe); it is not live relative to Figure 3; Figure 4, the abstraction
// of both, keeps it live; the abstraction method concludes it for
// Figure 2, whose homomorphism is simple, and is inconclusive on
// Figure 3, whose is not.
var fixtureWant = map[string]map[string]string{
	"fig2/all":           {"satisfied": "false", "relativeLiveness": "true", "relativeSafety": "false"},
	"fig3/all":           {"satisfied": "false", "relativeLiveness": "false"},
	"fig4/all":           {"satisfied": "false", "relativeLiveness": "true"},
	"fig2/liveness":      {"holds": "true"},
	"fig3/liveness":      {"holds": "false"},
	"fig2/safety":        {"holds": "false"},
	"fig2/satisfies":     {"holds": "false"},
	"fig2/portfolio":     {"0.satisfied": "false", "0.relativeLiveness": "true"},
	"fig2/statistical":   {"verdict": core.StatVerdictHolds},
	"fig3/statistical":   {"verdict": core.StatVerdictFails},
	"fig2/abstraction":   {"conclusion": core.ConcreteHolds.String(), "simple": "true"},
	"fig3/abstraction":   {"conclusion": core.Inconclusive.String(), "abstractHolds": "true", "simple": "false"},
	"fig2/fair-abstract": {"holds": "true"},
}

// verdictFields extracts the verdict fields of a decoded response —
// the parts that do not depend on how the system's lines were ordered.
func verdictFields(resp any) map[string]string {
	f := map[string]string{}
	b := func(v bool) string { return fmt.Sprint(v) }
	report := func(prefix string, r *core.Report) {
		f[prefix+"satisfied"] = b(r.Satisfied)
		f[prefix+"relativeLiveness"] = b(r.RelativeLiveness)
		f[prefix+"relativeSafety"] = b(r.RelativeSafety)
	}
	switch r := resp.(type) {
	case *core.Report:
		report("", r)
	case *serve.LivenessResponse:
		f["holds"] = b(r.Holds)
	case *serve.SafetyResponse:
		f["holds"] = b(r.Holds)
	case *serve.SatisfiesResponse:
		f["holds"] = b(r.Holds)
	case *serve.PortfolioResponse:
		for i, rep := range r.Reports {
			report(fmt.Sprintf("%d.", i), rep)
		}
	case *core.StatisticalReport:
		f["verdict"] = r.Verdict
	case *serve.AbstractionResponse:
		f["conclusion"] = r.Conclusion
		f["abstractHolds"] = b(r.AbstractHolds)
		f["simple"] = b(r.Simple)
	case *core.FairAbstractReport:
		f["holds"] = b(r.Holds)
		f["vacuous"] = b(r.Vacuous)
	}
	return f
}

// checkAnswers returns one message per verdict error among the answers
// of one or more passes, each against its own deployment: a group whose
// bodies differ within a pass (a cache hit must replay its miss byte for
// byte), a body failing its endpoint's check, a respelling whose
// verdicts differ from the canonical text's, or a group whose verdicts
// differ between passes. Bodies are not compared across passes: the
// witnesses of two deployments may differ (see bench/README.md).
func checkAnswers(passes [][]*outcome) []string {
	type key struct{ pass, group int }
	first := map[key]*outcome{}
	bad := map[key]bool{}
	var keys []key
	var errs []string
	for pi, outs := range passes {
		for _, o := range outs {
			if o.req == nil || o.failed() {
				continue
			}
			k := key{pi, o.req.Group}
			f, ok := first[k]
			if !ok {
				first[k] = o
				keys = append(keys, k)
				continue
			}
			if !bad[k] && !bytes.Equal(f.body, o.body) {
				bad[k] = true
				errs = append(errs, fmt.Sprintf("%s: a request keyed alike got a different body:\n  %s\n  %s\n  request: %s",
					o.req.Endpoint, bytes.TrimSpace(f.body), bytes.TrimSpace(o.body), o.req.Body))
			}
		}
	}

	// Each distinct answer of a group is checked once; the checks are
	// independent, so two goroutines share them.
	type answer struct {
		group int
		body  string
	}
	fields := map[answer]map[string]string{}
	var todo []*outcome
	for _, k := range keys {
		o := first[k]
		a := answer{k.group, string(o.body)}
		if _, ok := fields[a]; !ok {
			fields[a] = nil
			todo = append(todo, o)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
				o := todo[i]
				f, err := checkBody(o.req, o.body)
				mu.Lock()
				fields[answer{o.req.Group, string(o.body)}] = f
				if err != nil {
					errs = append(errs, fmt.Sprintf("%s: %v\n  request: %s\n  answer:  %s",
						o.req.Endpoint, err, o.req.Body, bytes.TrimSpace(o.body)))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	verdicts := func(k key) map[string]string {
		if o, ok := first[k]; ok {
			return fields[answer{k.group, string(o.body)}]
		}
		return nil
	}
	for _, k := range keys {
		o := first[k]
		if k.pass > 0 {
			if d := differ(verdicts(key{0, k.group}), verdicts(k)); d != "" {
				errs = append(errs, fmt.Sprintf("%s: a second deployment changed %s\n  request: %s", o.req.Endpoint, d, o.req.Body))
			}
		}
		// A sampled verdict depends on the state numbering the text
		// induces, so reordered statistical requests are checked on their
		// own only.
		if o.req.Spell == spellOrder && o.req.Endpoint != "statistical" {
			if d := differ(verdicts(key{k.pass, o.req.Canon}), verdicts(k)); d != "" {
				errs = append(errs, fmt.Sprintf("%s: reordered lines changed %s\n  request: %s", o.req.Endpoint, d, o.req.Body))
			}
		}
	}
	return errs
}

// differ names the first verdict field want and got disagree on, or ""
// when either is missing (its own check already failed).
func differ(want, got map[string]string) string {
	if want == nil || got == nil {
		return ""
	}
	names := make([]string, 0, len(want))
	for k := range want {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if got[k] != want[k] {
			return fmt.Sprintf("%s from %s to %s", k, want[k], got[k])
		}
	}
	return ""
}

// checkBody checks one answer and returns its verdict fields.
func checkBody(r *request, body []byte) (map[string]string, error) {
	resp, err := decodeResponse(r.Endpoint, body)
	if err != nil {
		return nil, err
	}
	f := verdictFields(resp)
	if want, ok := fixtureWant[r.Fixture]; ok {
		for k, v := range want {
			if f[k] != v {
				return f, fmt.Errorf("fixture %s: %s is %q, the paper says %q", r.Fixture, k, f[k], v)
			}
		}
	}
	req, err := decodeRequest(r.Endpoint, r.Body)
	if err != nil {
		return f, err
	}
	sys, err := ts.ParseString(req.system)
	if err != nil {
		return f, err
	}
	ab := sys.Alphabet()
	formula := func(i int) (*ltl.Formula, oracle.Property, error) {
		phi, err := ltl.Parse(req.formulas[i])
		return phi, oracle.FromFormula(phi, nil), err
	}
	switch resp := resp.(type) {
	case *core.Report:
		_, p, err := formula(0)
		if err != nil {
			return f, err
		}
		return f, checkReport(sys, p, resp)
	case *serve.PortfolioResponse:
		if len(resp.Reports) != len(req.formulas) {
			return f, fmt.Errorf("%d reports for %d properties", len(resp.Reports), len(req.formulas))
		}
		for i, rep := range resp.Reports {
			_, p, err := formula(i)
			if err != nil {
				return f, err
			}
			if err := checkReport(sys, p, rep); err != nil {
				return f, fmt.Errorf("property %d: %w", i, err)
			}
		}
		return f, nil
	case *serve.LivenessResponse:
		_, p, err := formula(0)
		if err != nil || resp.Holds {
			return f, err
		}
		return f, confirm("bad prefix", func() (bool, error) {
			w, err := toWord(ab, resp.BadPrefix)
			if err != nil {
				return false, err
			}
			return oracle.ConfirmBadPrefix(sys, p, w)
		})
	case *serve.SafetyResponse:
		_, p, err := formula(0)
		if err != nil || resp.Holds {
			return f, err
		}
		return f, confirm("safety violation", func() (bool, error) {
			l, err := toLasso(ab, resp.Violation, resp.ViolationLoop)
			if err != nil {
				return false, err
			}
			return oracle.ConfirmSafetyViolation(sys, p, l)
		})
	case *serve.SatisfiesResponse:
		_, p, err := formula(0)
		if err != nil || resp.Holds {
			return f, err
		}
		return f, confirm("counterexample", func() (bool, error) {
			l, err := toLasso(ab, resp.Counterexample, resp.CounterexampleLoop)
			if err != nil {
				return false, err
			}
			return oracle.ConfirmCounterexample(sys, p, l)
		})
	case *core.StatisticalReport:
		phi, _, err := formula(0)
		if err != nil {
			return f, err
		}
		return f, checkStatistical(sys, phi, resp)
	case *serve.AbstractionResponse:
		want := core.Inconclusive
		switch {
		case !resp.AbstractHolds:
			want = core.ConcreteFails
		case resp.Simple:
			want = core.ConcreteHolds
		}
		if resp.Conclusion != want.String() {
			return f, fmt.Errorf("conclusion %q contradicts abstractHolds=%v simple=%v (Corollary 8.4)",
				resp.Conclusion, resp.AbstractHolds, resp.Simple)
		}
		return f, nil
	case *core.FairAbstractReport:
		if resp.Holds {
			return f, nil
		}
		ar, err := serve.DecodeFairAbstractRequest(r.Body)
		if err != nil {
			return f, err
		}
		return f, checkFairViolation(sys, ar, resp)
	}
	return f, fmt.Errorf("no check for %T", resp)
}

func confirm(what string, fn func() (bool, error)) error {
	ok, err := fn()
	if err != nil {
		return fmt.Errorf("confirming the %s: %w", what, err)
	}
	if !ok {
		return fmt.Errorf("the oracle refutes the %s", what)
	}
	return nil
}

// checkReport holds a CheckAll report to Theorem 4.7 and confirms each
// failed verdict's witness.
func checkReport(sys *ts.System, p oracle.Property, r *core.Report) error {
	if r.Satisfied != (r.RelativeLiveness && r.RelativeSafety) {
		return fmt.Errorf("satisfied=%v but RL=%v, RS=%v (Theorem 4.7)", r.Satisfied, r.RelativeLiveness, r.RelativeSafety)
	}
	ab := sys.Alphabet()
	if !r.Satisfied {
		if err := confirm("counterexample", func() (bool, error) {
			l, err := toLasso(ab, r.Counterexample, r.CounterexampleLp)
			if err != nil {
				return false, err
			}
			return oracle.ConfirmCounterexample(sys, p, l)
		}); err != nil {
			return err
		}
	}
	if !r.RelativeLiveness {
		if err := confirm("bad prefix", func() (bool, error) {
			w, err := toWord(ab, r.BadPrefix)
			if err != nil {
				return false, err
			}
			return oracle.ConfirmBadPrefix(sys, p, w)
		}); err != nil {
			return err
		}
	}
	if !r.RelativeSafety {
		return confirm("safety violation", func() (bool, error) {
			l, err := toLasso(ab, r.Violation, r.ViolationLoop)
			if err != nil {
				return false, err
			}
			return oracle.ConfirmSafetyViolation(sys, p, l)
		})
	}
	return nil
}

// checkStatistical: a sampled "fails" must come with a behavior of the
// system that refutes the formula; "holds" means every settled sample
// satisfied it; "inconclusive" means none settled.
func checkStatistical(sys *ts.System, phi *ltl.Formula, r *core.StatisticalReport) error {
	switch r.Verdict {
	case core.StatVerdictHolds:
		if !r.Holds || (!r.Vacuous && (r.Settled == 0 || r.Hits != r.Settled)) {
			return fmt.Errorf("holds with %d hits of %d settled samples", r.Hits, r.Settled)
		}
	case core.StatVerdictInconclusive:
		if r.Holds || r.Settled != 0 {
			return fmt.Errorf("inconclusive with %d settled samples", r.Settled)
		}
	case core.StatVerdictFails:
		if r.Holds || r.Hits >= r.Settled {
			return fmt.Errorf("fails with %d hits of %d settled samples", r.Hits, r.Settled)
		}
		return confirm("sampled counterexample", func() (bool, error) {
			l, err := toLasso(sys.Alphabet(), r.Counterexample, r.CounterexampleLoop)
			if err != nil || !oracle.IsBehavior(sys, l) {
				return false, err
			}
			sat, err := ltl.EvalLasso(phi, l, ltl.Canonical(sys.Alphabet()))
			return !sat, err
		})
	default:
		return fmt.Errorf("unknown verdict %q", r.Verdict)
	}
	return nil
}

// checkFairViolation confirms a fair-abstract failure's witness: a
// behavior of the system whose image under the homomorphism is defined
// and refutes the abstract property. (Its fairness needs the run's
// edges, which the wire format does not carry.)
func checkFairViolation(sys *ts.System, req *serve.FairAbstractRequest, r *core.FairAbstractReport) error {
	if r.Vacuous {
		return fmt.Errorf("a vacuous report must hold")
	}
	return confirm("fair violation", func() (bool, error) {
		l, err := toLasso(sys.Alphabet(), r.ViolationPrefix, r.ViolationLoop)
		if err != nil || !oracle.IsBehavior(sys, l) {
			return false, err
		}
		h, err := hom.Parse(sys.Alphabet(), req.Hom)
		if err != nil {
			return false, err
		}
		eta, err := ltl.Parse(req.Eta)
		if err != nil {
			return false, err
		}
		img, ok := h.ApplyLasso(l)
		if !ok {
			return false, nil
		}
		sat, err := ltl.EvalLasso(eta, img, ltl.Canonical(h.Dest()))
		return !sat, err
	})
}

func toWord(ab *alphabet.Alphabet, names []string) (word.Word, error) {
	w := make(word.Word, len(names))
	for i, n := range names {
		s, ok := ab.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unknown action %q", n)
		}
		w[i] = s
	}
	return w, nil
}

func toLasso(ab *alphabet.Alphabet, prefix, loop []string) (word.Lasso, error) {
	p, err := toWord(ab, prefix)
	if err != nil {
		return word.Lasso{}, err
	}
	l, err := toWord(ab, loop)
	if err != nil {
		return word.Lasso{}, err
	}
	if len(l) == 0 {
		return word.Lasso{}, fmt.Errorf("witness without a loop")
	}
	return word.Lasso{Prefix: p, Loop: l}, nil
}

// summarize shortens a verdict-error list for printing.
func summarize(errs []string, max int) string {
	if len(errs) <= max {
		return strings.Join(errs, "\n")
	}
	return strings.Join(errs[:max], "\n") + fmt.Sprintf("\n... and %d more", len(errs)-max)
}
