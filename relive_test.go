package relive_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"relive"
	"relive/internal/paper"
)

const serverText = `
# the paper's abstract server (Figure 4 shape)
init idle
idle request busy
busy result idle
busy reject idle
`

// ltlProperty parses text as a formula under the canonical labeling.
func ltlProperty(text string) relive.Property {
	return relive.PropertyFromLTL(relive.MustParseLTL(text), nil)
}

func TestQuickstartFlow(t *testing.T) {
	sys, err := relive.ParseSystemString(serverText)
	if err != nil {
		t.Fatal(err)
	}
	prop := ltlProperty("G F result")
	ctx := context.Background()
	checker := relive.With()

	sat, err := checker.CheckSatisfies(ctx, sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if sat.Holds {
		t.Error("□◇result satisfied without fairness?")
	}
	rl, err := checker.CheckRelativeLiveness(ctx, sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Error("□◇result not a relative liveness property of the server")
	}
	rs, err := checker.CheckRelativeSafety(ctx, sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Holds {
		t.Error("□◇result is a relative safety property — then Theorem 4.7 would make it satisfied")
	}
}

func TestParseSystemReader(t *testing.T) {
	sys, err := relive.ParseSystem(strings.NewReader(serverText))
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumStates() != 2 {
		t.Errorf("parsed %d states, want 2", sys.NumStates())
	}
}

func TestAbstractionFlow(t *testing.T) {
	// Concrete server with internal decision actions.
	sys, err := relive.ParseSystemString(`
init idle
idle request deciding
deciding accept granted
deciding deny denied
granted result idle
denied reject idle
`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := relive.ParseHom(sys.Alphabet(), "request=>request, result=>result, reject=>reject, accept=>, deny=>")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	checker := relive.With()
	report, err := checker.VerifyViaAbstraction(ctx, sys, h, relive.MustParseLTL("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	if !report.AbstractHolds {
		t.Error("abstract check failed")
	}
	if !report.Simple {
		t.Errorf("hiding the decision actions should be simple here (witness %s)",
			report.SimplicityWitness.String(sys.Alphabet()))
	}
	if report.Conclusion != relive.ConcreteHolds {
		t.Errorf("conclusion %v, want ConcreteHolds", report.Conclusion)
	}
	// Cross-check via the transformed property.
	p, err := relive.ConcreteProperty(h, relive.MustParseLTL("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	rl, err := checker.CheckRelativeLiveness(ctx, sys, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Error("direct concrete check of R̄(η) failed")
	}
}

func TestObserveActions(t *testing.T) {
	ab := relive.NewAlphabet("a", "b", "tau")
	h := relive.ObserveActions(ab, "a", "b")
	sa, _ := ab.Lookup("tau")
	if h.Image(sa) != relive.Epsilon {
		t.Error("unobserved action not hidden")
	}
}

func TestFairImplementationFlow(t *testing.T) {
	sys, err := relive.ParseSystemString(`
init q
q a q
q b q
`)
	if err != nil {
		t.Fatal(err)
	}
	prop := ltlProperty("F (a & X a)")
	ctx := context.Background()
	checker := relive.With()
	ok, bad, err := checker.AllFairRunsSatisfy(ctx, sys, prop, relive.FairnessStrong)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("minimal automaton already enforces the property under fairness")
	}
	if bad == nil {
		t.Fatal("no violating run")
	}
	fi, err := checker.SynthesizeFairImplementation(ctx, sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	same, _, err := fi.SameBehaviors(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Error("synthesis changed behaviors")
	}
}

func TestEvalLassoAndScheduler(t *testing.T) {
	sys, err := relive.ParseSystemString(serverText)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := relive.NewFairScheduler(sys)
	if err != nil {
		t.Fatal(err)
	}
	trace := sched.Trace(50)
	if len(trace) != 50 {
		t.Fatalf("trace length %d", len(trace))
	}
	// The fair scheduler alternates result and reject; count results.
	results := 0
	for _, e := range trace {
		if sys.Alphabet().Name(e.Sym) == "result" {
			results++
		}
	}
	if results < 10 {
		t.Errorf("fair scheduler produced only %d results in 50 steps", results)
	}
}

func TestPetriFlow(t *testing.T) {
	net := relive.NewNet()
	net.AddPlace("p", 1)
	net.AddTransition("go", map[string]int{"p": 1}, map[string]int{"p": 1})
	sys, err := net.ReachabilityGraph(10)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := relive.With().CheckRelativeLiveness(context.Background(), sys, ltlProperty("G F go"))
	if err != nil {
		t.Fatal(err)
	}
	if !rl.Holds {
		t.Error("G F go should be (relative) liveness on the one-loop net")
	}
}

func TestProductSystem(t *testing.T) {
	a, err := relive.ParseSystemString("init p\np sync p\np x p\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := relive.ParseSystemString("init q\nq sync q\nq y q\n")
	if err != nil {
		t.Fatal(err)
	}
	prod, err := relive.ProductSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if prod.NumStates() != 1 {
		t.Errorf("product states = %d, want 1", prod.NumStates())
	}
	if prod.Alphabet().Size() != 3 {
		t.Errorf("product alphabet = %v, want {sync,x,y}", prod.Alphabet())
	}
}

func TestRbarPublic(t *testing.T) {
	f, err := relive.Rbar(relive.MustParseLTL("G F result"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.String(), "ε") {
		t.Errorf("R̄ should introduce ε: %s", f)
	}
}

// TestVerdictMethodsCancelled: every verdict method takes its context
// first and returns an error wrapping context.Canceled when that
// context is already done, on the paper's server (Figure 2) and on an
// ω-regex language that is not limit closed. A cancelled check is never
// a verdict.
func TestVerdictMethodsCancelled(t *testing.T) {
	sys, err := paper.Fig2System()
	if err != nil {
		t.Fatal(err)
	}
	p := relive.PropertyFromLTL(paper.PropertyInfResults(), nil)
	h := paper.AbstractionHom(sys)
	eta := paper.PropertyInfResults()
	ab := relive.NewAlphabet("a", "b")
	lomega, err := relive.ParseOmegaRegex(ab, "( a | b ) * ( a ) ^w")
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := relive.ParseOmegaRegex(ab, "( a ) ^w")
	if err != nil {
		t.Fatal(err)
	}
	pOmega := relive.PropertyFromLTL(relive.MustParseLTL("G F a"), relive.CanonicalLabeling(ab))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := relive.With()
	for _, row := range []struct {
		name string
		run  func() error
	}{
		{"CheckAll", func() error { _, err := c.CheckAll(ctx, sys, p); return err }},
		{"CheckRelativeLiveness", func() error { _, err := c.CheckRelativeLiveness(ctx, sys, p); return err }},
		{"CheckRelativeSafety", func() error { _, err := c.CheckRelativeSafety(ctx, sys, p); return err }},
		{"CheckSatisfies", func() error { _, err := c.CheckSatisfies(ctx, sys, p); return err }},
		{"CheckStatistical", func() error { _, err := c.CheckStatistical(ctx, sys, p); return err }},
		{"CheckPropertyPortfolio", func() error {
			_, err := c.CheckPropertyPortfolio(ctx, sys, []relive.Property{p, p})
			return err
		}},
		{"CheckSystemsPortfolio", func() error {
			_, err := c.CheckSystemsPortfolio(ctx, []*relive.System{sys, sys}, p)
			return err
		}},
		{"CheckRelativeLivenessOmega", func() error { _, err := c.CheckRelativeLivenessOmega(ctx, lomega, pOmega); return err }},
		{"CheckRelativeSafetyOmega", func() error { _, err := c.CheckRelativeSafetyOmega(ctx, lomega, pOmega); return err }},
		{"IsLimitClosed", func() error { _, _, err := c.IsLimitClosed(ctx, lomega); return err }},
		{"MachineClosed", func() error { _, err := c.MachineClosed(ctx, lomega, lambda); return err }},
		{"SynthesizeFairImplementation", func() error { _, err := c.SynthesizeFairImplementation(ctx, sys, p); return err }},
		{"AllFairRunsSatisfy", func() error {
			_, _, err := c.AllFairRunsSatisfy(ctx, sys, p, relive.FairnessStrong)
			return err
		}},
		{"VerifyViaAbstraction", func() error { _, err := c.VerifyViaAbstraction(ctx, sys, h, eta); return err }},
		{"CheckFairAbstract", func() error {
			_, err := c.CheckFairAbstract(ctx, sys, h, relive.FairnessStrong, eta)
			return err
		}},
	} {
		if err := row.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", row.name, err)
		}
	}
}
