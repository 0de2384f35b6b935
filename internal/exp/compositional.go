package exp

import (
	"context"
	"fmt"
	"time"

	"relive/internal/core"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/nfa"
	"relive/internal/telecom"
	"relive/internal/ts"
)

// workerComponent builds one independent worker: idle -req_i-> busy
// -work_i-> done -res_i-> idle, over its private alphabet.
func workerComponent(i int) *ts.System {
	suffix := fmt.Sprintf("%d", i)
	s, err := ts.ParseString(fmt.Sprintf(`
init idle%[1]s
idle%[1]s req%[1]s busy%[1]s
busy%[1]s work%[1]s done%[1]s
done%[1]s res%[1]s idle%[1]s
`, suffix))
	if err != nil {
		panic(err) // static template: cannot fail
	}
	return s
}

// WorkerFarm composes n independent workers by interleaving.
func WorkerFarm(n int) (*ts.System, error) {
	sys := workerComponent(0)
	for i := 1; i < n; i++ {
		var err error
		sys, err = ts.Product(sys, workerComponent(i))
		if err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// E11Compositional demonstrates the Section 9 motivation: computing the
// abstract behavior compositionally — abstract each component, then
// compose — gives the same abstraction as abstracting the full product,
// at a fraction of the state space, and relative liveness of the
// observable property can be checked on it.
func E11Compositional(n int) (Result, error) {
	concrete, err := WorkerFarm(n)
	if err != nil {
		return Result{}, err
	}
	// Observe only worker 0's request and result.
	h := hom.Identity(concrete.Alphabet(), "req0", "res0")
	concNFA, err := concrete.NFA()
	if err != nil {
		return Result{}, err
	}
	startMono := time.Now()
	monolithic := h.ImageNFA(concNFA).Determinize().Minimize()
	monoTime := time.Since(startMono)

	// Compositional route: abstract worker 0 alone (the other components
	// are fully hidden and independent, so their image is {ε}).
	startComp := time.Now()
	comp0 := workerComponent(0)
	hComp := hom.Identity(comp0.Alphabet(), "req0", "res0")
	comp0NFA, err := comp0.NFA()
	if err != nil {
		return Result{}, err
	}
	compositional := hComp.ImageNFA(comp0NFA).Determinize().Minimize()
	compTime := time.Since(startComp)

	sameLang := nfa.EquivalentDFA(monolithic, renameDFA(compositional, monolithic))

	// Verify the observable property on the abstraction and conclude for
	// the concrete product via simplicity.
	eta := ltl.MustParse("G (req0 -> F res0)")
	report, err := core.VerifyViaAbstraction(context.Background(), concrete, h, eta)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID: "E11", Artifact: "§9 / [22]", Title: "compositional abstraction of an interleaved worker farm",
		Observations: []Observation{
			info("components", fmt.Sprintf("%d", n)),
			info("concrete product states", fmt.Sprintf("%d", concrete.NumStates())),
			info("abstract states", fmt.Sprintf("%d", monolithic.NumStates())),
			claimBool("compositional == monolithic abstraction", sameLang, true,
				"abstract behavior computable by partial exploration"),
			info("monolithic abstraction time", monoTime.String()),
			info("compositional abstraction time", compTime.String()),
			claimBool("h simple on the farm", report.Simple, true, "simple homomorphisms license the conclusion"),
			claimBool("abstract G(req0 → ◇res0) relative liveness", report.AbstractHolds, true, ""),
			claim("conclusion", report.Conclusion.String(), "Theorem 8.2",
				report.Conclusion == core.ConcreteHolds),
		},
	}, nil
}

// E12FeatureInteraction runs the [6]-style case study: the
// well-integrated switch passes the abstraction pipeline; the
// misintegrated one is refuted at the concrete level and its
// abstraction is untrustworthy (non-simple), mirroring Figures 2/3.
func E12FeatureInteraction() (Result, error) {
	good := telecom.WellIntegrated()
	bad := telecom.Misintegrated()
	eta := telecom.HandledProperty()

	goodReport, err := core.VerifyViaAbstraction(context.Background(), good, telecom.Abstraction(good), eta)
	if err != nil {
		return Result{}, err
	}
	badConcrete, err := core.ConcreteProperty(telecom.Abstraction(bad), eta)
	if err != nil {
		return Result{}, err
	}
	badDirect, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(bad, badConcrete))
	if err != nil {
		return Result{}, err
	}
	badNFA, err := bad.NFA()
	if err != nil {
		return Result{}, err
	}
	badSimple, err := telecom.Abstraction(bad).IsSimple(badNFA)
	if err != nil {
		return Result{}, err
	}
	goodSat, err := core.Satisfies(context.Background(), core.NewPipelineCells(good, core.FromFormula(ltl.MustParse(
		"G (call -> F (answer | fwdanswer | record))"), nil)))
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID: "E12", Artifact: "[6] case study", Title: "feature interaction: call forwarding vs voice mail",
		Observations: []Observation{
			claimBool("well-integrated satisfied outright", goodSat.Holds, false,
				"bouncing makes it fail without fairness"),
			claimBool("well-integrated: h simple", goodReport.Simple, true, ""),
			claimBool("well-integrated: abstract RL", goodReport.AbstractHolds, true, ""),
			claim("well-integrated conclusion", goodReport.Conclusion.String(),
				"Theorem 8.2", goodReport.Conclusion == core.ConcreteHolds),
			claimBool("misintegrated: concrete RL of R̄(η)", badDirect.Holds, false,
				"the interaction bug starves the call"),
			claimBool("misintegrated: h simple", badSimple.Simple, false,
				"abstraction alone would hide the bug"),
		},
	}, nil
}
