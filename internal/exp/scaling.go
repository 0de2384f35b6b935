package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/core"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/nfa"
	"relive/internal/obs"
)

// ScalingSizes configures the E8 sweep.
type ScalingSizes struct {
	SystemStates []int // sweep of random-system sizes, fixed property
	FormulaDepth []int // sweep of nested-Until depth, fixed system size
	Trials       int   // systems averaged per point
}

// DefaultScalingSizes returns the sweep reported by cmd/rlbench.
func DefaultScalingSizes() ScalingSizes {
	return ScalingSizes{
		SystemStates: []int{4, 8, 16, 32, 64},
		FormulaDepth: []int{1, 2, 3, 4},
		Trials:       5,
	}
}

// ScalingPoint is one measured point of the E8 sweep.
type ScalingPoint struct {
	Label    string
	Elapsed  time.Duration
	Decided  int // checks performed
	Explored int // pre(L∩P) product states explored per check, on average
	MaxProd  int // largest Büchi product built
	Verdicts int // how many were "holds"
}

// E8Scaling stands in for Theorem 4.5 (PSPACE-completeness): absolute
// complexity cannot be measured, but the decision procedure's cost
// growing with system size and property size — driven by the product
// and subset constructions — is its observable face. The size claim
// counts the product states each check explores, read from its own
// spans, rather than timing it: a count repeats exactly from run to
// run, where a millisecond-scale time does not.
func E8Scaling(sizes ScalingSizes) (Result, error) {
	rng := rand.New(rand.NewSource(4501))
	ab := gen.Letters(2)
	obs := []Observation{}
	prop := core.FromFormula(ltl.MustParse("G F a"), nil)

	var first, prev int
	monotoneish := true
	for i, n := range sizes.SystemStates {
		pt, err := scalePoint(rng, ab, n, prop, sizes.Trials)
		if err != nil {
			return Result{}, err
		}
		obs = append(obs, info(
			fmt.Sprintf("states=%d (G F a)", n),
			fmt.Sprintf("%d product states explored per check (%v), max product %d states", pt.Explored, pt.Elapsed, pt.MaxProd)))
		if pt.Explored < prev/4 {
			monotoneish = false
		}
		if i == 0 {
			first = pt.Explored
		}
		prev = pt.Explored
	}
	monotoneish = monotoneish && prev > first
	for _, d := range sizes.FormulaDepth {
		f := nestedUntil(d)
		p := core.FromFormula(f, nil)
		pt, err := scalePoint(rng, ab, 8, p, sizes.Trials)
		if err != nil {
			return Result{}, err
		}
		pa, err := p.Automaton(nil, ab)
		if err != nil {
			return Result{}, err
		}
		obs = append(obs, info(
			fmt.Sprintf("formula depth=%d (states=8)", d),
			fmt.Sprintf("%v per check, property automaton %d states", pt.Elapsed, pa.NumStates())))
	}
	obs = append(obs, claimBool("cost grows with instance size", monotoneish, true,
		"deciding relative liveness is PSPACE-complete (Theorem 4.5)"))

	// The exponential face of the hardness: the language Σ*·a·Σ^(n−1)
	// ("the n-th letter from the end is a") has an (n+1)-state NFA whose
	// minimal DFA needs 2^n states; the subset construction inside the
	// relative-liveness checker pays exactly this price.
	blowupOK := true
	for _, n := range []int{2, 4, 6, 8} {
		states := determinizedSize(nthFromEnd(n))
		obs = append(obs, info(
			fmt.Sprintf("determinization of Σ*·a·Σ^%d", n-1),
			fmt.Sprintf("NFA %d states → DFA %d states", n+1, states)))
		if states != 1<<n {
			blowupOK = false
		}
	}
	obs = append(obs, claimBool("subset-construction blow-up is 2^n", blowupOK, true,
		"hardness via reduction from regular-language inclusion"))
	return Result{
		ID: "E8", Artifact: "Theorem 4.5", Title: "decision-procedure scaling (system and property sweeps)",
		Observations: obs,
	}, nil
}

// nthFromEnd returns the (n+1)-state NFA for "the n-th letter from the
// end is a" over {a,b}.
func nthFromEnd(n int) *nfa.NFA {
	ab := gen.Letters(2)
	a := nfa.New(ab)
	sa, _ := ab.Lookup("a")
	sb, _ := ab.Lookup("b")
	q0 := a.AddState(false)
	a.AddTransition(q0, sa, q0)
	a.AddTransition(q0, sb, q0)
	prev := q0
	for i := 0; i < n; i++ {
		next := a.AddState(i == n-1)
		if i == 0 {
			a.AddTransition(prev, sa, next)
		} else {
			a.AddTransition(prev, sa, next)
			a.AddTransition(prev, sb, next)
		}
		prev = next
	}
	a.SetInitial(q0)
	return a
}

func determinizedSize(a *nfa.NFA) int {
	return a.Determinize().Minimize().NumStates()
}

// scalePoint averages the relative-liveness decision over trials random
// systems of n states, counting the pre(L∩P) product states each check
// explores from its spans, and records the largest intermediate
// product.
func scalePoint(rng *rand.Rand, ab *alphabet.Alphabet, n int, p core.Property, trials int) (ScalingPoint, error) {
	var total time.Duration
	explored := 0
	pt := ScalingPoint{Decided: trials}
	for t := 0; t < trials; t++ {
		sys := randomSystem(rng, ab, n)
		tr := obs.NewTrace()
		start := time.Now()
		res, err := core.RelativeLiveness(obs.ContextWithRecorder(context.Background(), tr), core.NewPipelineCells(sys, p))
		if err != nil {
			return ScalingPoint{}, err
		}
		total += time.Since(start)
		for _, sp := range tr.Spans() {
			if sp.Name == "pre(L∩P)" {
				explored += int(sp.Ints["product_states"])
			}
		}
		if res.Holds {
			pt.Verdicts++
		}
		trimmed, err := sys.Trim()
		if err != nil {
			continue
		}
		beh, err := trimmed.Behaviors()
		if err != nil {
			return ScalingPoint{}, err
		}
		pa, err := p.Automaton(nil, ab)
		if err != nil {
			return ScalingPoint{}, err
		}
		// A nil ctx never cancels.
		if prod, _ := buchi.IntersectCtx(nil, beh, pa); prod.NumStates() > pt.MaxProd {
			pt.MaxProd = prod.NumStates()
		}
	}
	pt.Elapsed = total / time.Duration(trials)
	pt.Explored = explored / trials
	return pt, nil
}

// nestedUntil builds ((a U b) U a ...) of the given depth.
func nestedUntil(depth int) *ltl.Formula {
	f := ltl.Atom("a")
	for i := 0; i < depth; i++ {
		atom := "b"
		if i%2 == 1 {
			atom = "a"
		}
		f = ltl.Until(f, ltl.Eventually(ltl.Atom(atom)))
	}
	return ltl.Globally(f)
}
