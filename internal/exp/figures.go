package exp

import (
	"context"
	"fmt"

	"relive/internal/core"
	"relive/internal/fairness"
	"relive/internal/ltl"
	"relive/internal/nfa"
	"relive/internal/paper"
	"relive/internal/word"
)

// E1Fig1Reachability reproduces the Figure 1 → Figure 2 step: the
// reachability graph of the server Petri net.
func E1Fig1Reachability() (Result, error) {
	net := paper.Fig1Net()
	sys, err := net.ReachabilityGraph(64)
	if err != nil {
		return Result{}, err
	}
	trimmed, err := sys.Trim()
	if err != nil {
		return Result{}, err
	}
	ab := trimmed.Alphabet()
	counterexamplePath := trimmed.AcceptsWord(word.FromNames(ab,
		paper.ActLock, paper.ActRequest, paper.ActNo, paper.ActReject))
	return Result{
		ID: "E1", Artifact: "Figure 1→2", Title: "reachability graph of the server net",
		Observations: []Observation{
			info("places", fmt.Sprintf("%d", net.NumPlaces())),
			info("reachable markings", fmt.Sprintf("%d", sys.NumStates())),
			claim("states after trim", fmt.Sprintf("%d", trimmed.NumStates()),
				"finite-state behavior diagram", trimmed.NumStates() == 8),
			claimBool("path lock·request·no·reject exists", counterexamplePath, true,
				"lock·(request·no·reject)^ω is a computation"),
		},
	}, nil
}

// E2Fig2RelativeLiveness reproduces Section 2's claims about Figure 2:
// □◇result is not satisfied but is a relative liveness property.
func E2Fig2RelativeLiveness() (Result, error) {
	sys, err := paper.Fig2System()
	if err != nil {
		return Result{}, err
	}
	p := core.FromFormula(paper.PropertyInfResults(), nil)
	sat, err := core.Satisfies(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		return Result{}, err
	}
	rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		return Result{}, err
	}
	rs, err := core.RelativeSafety(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		return Result{}, err
	}
	obs := []Observation{
		claimBool("□◇result satisfied", sat.Holds, false, "not satisfied"),
		claimBool("□◇result relative liveness", rl.Holds, true, "is a relative liveness property"),
		// Theorem 4.7: unsatisfied + RL ⇒ not relative safety.
		claimBool("□◇result relative safety", rs.Holds, false, "excluded by Theorem 4.7"),
	}
	if !sat.Holds {
		obs = append(obs, info("counterexample", sat.Counterexample.String(sys.Alphabet())))
	}
	return Result{
		ID: "E2", Artifact: "Figure 2", Title: "relative liveness of □◇result on the server",
		Observations: obs,
	}, nil
}

// E3Fig3NotRelativeLiveness reproduces the erroneous-system claim: no
// fairness notion can make □◇result true of Figure 3.
func E3Fig3NotRelativeLiveness() (Result, error) {
	sys := paper.Fig3System()
	p := core.FromFormula(paper.PropertyInfResults(), nil)
	rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		return Result{}, err
	}
	obs := []Observation{
		claimBool("□◇result relative liveness", rl.Holds, false,
			"no notion of fairness can make it true"),
	}
	if !rl.Holds {
		obs = append(obs, info("unrecoverable prefix", rl.BadPrefix.String(sys.Alphabet())))
	}
	// Cross-check with the fairness machinery: even all strongly fair
	// runs violate it... more precisely, some strongly fair run violates
	// it on every implementation candidate; here, on the system itself.
	fairOK, _, err := core.AllFairRunsSatisfy(context.Background(), sys, p, fairness.Strong)
	if err != nil {
		return Result{}, err
	}
	obs = append(obs, claimBool("strong fairness suffices on Figure 3", fairOK, false,
		"fairness cannot help"))
	return Result{
		ID: "E3", Artifact: "Figure 3", Title: "the erroneous server is beyond fairness",
		Observations: obs,
	}, nil
}

// E4Fig4Abstraction reproduces the abstraction step: both Figure 2 and
// Figure 3 abstract to the two-state Figure 4, on which □◇result is a
// relative liveness property.
func E4Fig4Abstraction() (Result, error) {
	fig2, err := paper.Fig2System()
	if err != nil {
		return Result{}, err
	}
	fig3 := paper.Fig3System()
	fig4, err := paper.Fig4System()
	if err != nil {
		return Result{}, err
	}
	a2, err := fig2.NFA()
	if err != nil {
		return Result{}, err
	}
	a3, err := fig3.NFA()
	if err != nil {
		return Result{}, err
	}
	img2 := paper.AbstractionHom(fig2).ImageNFA(a2).Determinize().Minimize()
	img3 := paper.AbstractionHom(fig3).ImageNFA(a3).Determinize().Minimize()
	sameLang := img2.NumStates() == img3.NumStates() && nfa.EquivalentDFA(img2, renameDFA(img3, img2)) // see renameDFA

	rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(fig4, core.FromFormula(paper.PropertyInfResults(), nil)))
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID: "E4", Artifact: "Figure 4", Title: "abstract version of the small system",
		Observations: []Observation{
			claim("abstract states", fmt.Sprintf("%d", fig4.NumStates()), "two-state diagram",
				fig4.NumStates() == 2),
			claimBool("Fig2 and Fig3 abstract identically", sameLang, true,
				"Figure 4 is also obtained by abstracting Figure 3"),
			claimBool("□◇result relative liveness on abstract", rl.Holds, true,
				"is a relative liveness property of Figure 4"),
		},
	}, nil
}

// renameDFA rebuilds b over a's alphabet by letter names so the two
// image DFAs (built over separately interned alphabets) are comparable.
func renameDFA(b, a *nfa.DFA) *nfa.DFA {
	out := nfa.NewDFA(a.Alphabet())
	for i := 0; i < b.NumStates(); i++ {
		out.AddState(b.Accepting(nfa.State(i)))
	}
	for i := 0; i < b.NumStates(); i++ {
		for _, sym := range b.Alphabet().Symbols() {
			if t, ok := b.Delta(nfa.State(i), sym); ok {
				out.SetTransition(nfa.State(i), a.Alphabet().Symbol(b.Alphabet().Name(sym)), t)
			}
		}
	}
	out.SetInitial(b.Initial())
	return out
}

// E5Simplicity reproduces the Section 2 / Section 8 distinction: the
// hiding homomorphism is simple on Figure 2's language but not on
// Figure 3's, which is exactly what licenses (resp. forbids) concluding
// from Figure 4 back to the concrete system.
func E5Simplicity() (Result, error) {
	fig2, err := paper.Fig2System()
	if err != nil {
		return Result{}, err
	}
	fig3 := paper.Fig3System()

	a2, err := fig2.NFA()
	if err != nil {
		return Result{}, err
	}
	a3, err := fig3.NFA()
	if err != nil {
		return Result{}, err
	}
	s2, err := paper.AbstractionHom(fig2).IsSimple(a2)
	if err != nil {
		return Result{}, err
	}
	s3, err := paper.AbstractionHom(fig3).IsSimple(a3)
	if err != nil {
		return Result{}, err
	}
	obs := []Observation{
		claimBool("h simple on Figure 2", s2.Simple, true,
			"the homomorphism preserves relative liveness properties"),
		claimBool("h simple on Figure 3", s3.Simple, false,
			"it does not do so in the case of Figure 3"),
	}
	if !s3.Simple {
		obs = append(obs, info("non-simplicity witness", s3.Witness.String(fig3.Alphabet())))
	}
	// Corollary 8.4 in action.
	rep2, err := core.VerifyViaAbstraction(context.Background(), fig2, paper.AbstractionHom(fig2), paper.PropertyInfResults())
	if err != nil {
		return Result{}, err
	}
	rep3, err := core.VerifyViaAbstraction(context.Background(), fig3, paper.AbstractionHom(fig3), paper.PropertyInfResults())
	if err != nil {
		return Result{}, err
	}
	obs = append(obs,
		claim("conclusion for Figure 2", rep2.Conclusion.String(), "Theorem 8.2 applies",
			rep2.Conclusion == core.ConcreteHolds),
		claim("conclusion for Figure 3", rep3.Conclusion.String(), "not without caution (Section 2)",
			rep3.Conclusion == core.Inconclusive),
	)
	return Result{
		ID: "E5", Artifact: "§2/§8", Title: "simplicity separates the two abstractions",
		Observations: obs,
	}, nil
}

// E6RbarTransform reproduces Definition 7.4 / Figure 5: the R̄
// transformation and the Lemma 7.5 equivalence, validated on sampled
// words.
func E6RbarTransform() (Result, error) {
	eta := paper.PropertyInfResults()
	rbar, err := ltl.Rbar(eta)
	if err != nil {
		return Result{}, err
	}
	agree, total, err := lemma75Sample()
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID: "E6", Artifact: "Figure 5", Title: "the T/R̄ property transformation",
		Observations: []Observation{
			info("η", eta.String()),
			info("R̄(η)", rbar.String()),
			claim("Lemma 7.5 word-level agreement",
				fmt.Sprintf("%d/%d", agree, total), "equivalence", agree == total),
		},
	}, nil
}

// E7FairImplementation reproduces the Section 5 example and
// Theorem 5.1.
func E7FairImplementation() (Result, error) {
	sys := paper.Section5System()
	p := core.FromFormula(paper.Section5Property(), nil)
	rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
	if err != nil {
		return Result{}, err
	}
	minimalOK, _, err := core.AllFairRunsSatisfy(context.Background(), sys, p, fairness.Strong)
	if err != nil {
		return Result{}, err
	}
	fi, err := core.SynthesizeFairImplementation(context.Background(), sys, p)
	if err != nil {
		return Result{}, err
	}
	same, _, err := fi.SameBehaviors(sys)
	if err != nil {
		return Result{}, err
	}
	implOK, _, err := core.AllFairRunsSatisfy(context.Background(), fi.System, p, fairness.Strong)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID: "E7", Artifact: "§5", Title: "fair implementation of ◇(a ∧ ○a) over {a,b}^ω",
		Observations: []Observation{
			claimBool("◇(a ∧ ○a) relative liveness of {a,b}^ω", rl.Holds, true,
				"it is a relative liveness property"),
			claimBool("strong fairness suffices on minimal automaton", minimalOK, false,
				"it is not sufficient to impose strong fairness"),
			claimBool("implementation accepts exactly L_ω", same, true, "accepts L_ω"),
			claimBool("all strongly fair runs satisfy P", implOK, true,
				"all strongly fair computations satisfy P"),
			info("implementation states", fmt.Sprintf("%d (minimal system: %d)",
				fi.System.NumStates(), sys.NumStates())),
		},
	}, nil
}
