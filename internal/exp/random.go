package exp

import (
	"context"
	"fmt"
	"math/rand"

	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/ts"
	"relive/internal/word"
)

// lemma75Sample checks the word-level Lemma 7.5 equivalence on a fixed
// random corpus of formulas and ultimately periodic words, returning
// (agreements, total).
func lemma75Sample() (int, int, error) {
	rng := rand.New(rand.NewSource(7551))
	src := alphabet.FromNames("a", "b", "c")
	dst := alphabet.FromNames("x", "y")
	image := func(s alphabet.Symbol) alphabet.Symbol {
		switch src.Name(s) {
		case "a":
			x, _ := dst.Lookup("x")
			return x
		case "b":
			y, _ := dst.Lookup("y")
			return y
		default:
			return alphabet.Epsilon
		}
	}
	hLab := ltl.CanonicalImage(src, dst, image)
	dstLab := ltl.Canonical(dst)
	apply := func(w word.Word) word.Word {
		var out word.Word
		for _, s := range w {
			if d := image(s); d != alphabet.Epsilon {
				out = append(out, d)
			}
		}
		return out
	}
	agree, total := 0, 0
	for trial := 0; trial < 100; trial++ {
		eta := randomFormula(rng, []string{"x", "y"}, 3)
		rbar, err := ltl.Rbar(eta)
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < 10; i++ {
			x := gen.Lasso(rng, src, 3, 3)
			loopImg := apply(x.Loop)
			if len(loopImg) == 0 {
				continue // h(x) undefined
			}
			hx := word.MustLasso(apply(x.Prefix), loopImg)
			concrete, err := ltl.EvalLasso(rbar, x, hLab)
			if err != nil {
				return 0, 0, err
			}
			abstract, err := ltl.EvalLasso(eta, hx, dstLab)
			if err != nil {
				return 0, 0, err
			}
			total++
			if concrete == abstract {
				agree++
			}
		}
	}
	return agree, total, nil
}

// randomFormula builds a random PLTL formula over the given atoms.
func randomFormula(rng *rand.Rand, atoms []string, depth int) *ltl.Formula {
	if depth <= 0 || rng.Float64() < 0.3 {
		return ltl.Atom(atoms[rng.Intn(len(atoms))])
	}
	switch rng.Intn(7) {
	case 0:
		return ltl.Not(ltl.Atom(atoms[rng.Intn(len(atoms))]))
	case 1:
		return ltl.And(randomFormula(rng, atoms, depth-1), randomFormula(rng, atoms, depth-1))
	case 2:
		return ltl.Or(randomFormula(rng, atoms, depth-1), randomFormula(rng, atoms, depth-1))
	case 3:
		return ltl.Next(randomFormula(rng, atoms, depth-1))
	case 4:
		return ltl.Until(randomFormula(rng, atoms, depth-1), randomFormula(rng, atoms, depth-1))
	case 5:
		return ltl.Eventually(randomFormula(rng, atoms, depth-1))
	default:
		return ltl.Globally(randomFormula(rng, atoms, depth-1))
	}
}

// randomGeneralFormula additionally produces negations of compound
// formulas, exercising normalization.
func randomGeneralFormula(rng *rand.Rand, atoms []string, depth int) *ltl.Formula {
	f := randomFormula(rng, atoms, depth)
	if rng.Float64() < 0.3 {
		return ltl.Not(f)
	}
	return f
}

// randomSystem builds a random transition system.
func randomSystem(rng *rand.Rand, ab *alphabet.Alphabet, n int) *ts.System {
	s := ts.New(ab)
	for i := 0; i < n; i++ {
		s.AddState(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < n; i++ {
		for _, sym := range ab.Symbols() {
			for k := 0; k < 2; k++ {
				if rng.Float64() < 0.45 {
					from, _ := s.LookupState(fmt.Sprintf("s%d", i))
					to, _ := s.LookupState(fmt.Sprintf("s%d", rng.Intn(n)))
					s.AddTransition(from, sym, to)
				}
			}
		}
	}
	init, _ := s.LookupState("s0")
	s.SetInitial(init)
	return s
}

// E9ConjunctionTheorem samples Theorem 4.7 (satisfaction ⟺ relative
// liveness ∧ relative safety) over random systems and formulas.
func E9ConjunctionTheorem(samples int) (Result, error) {
	rng := rand.New(rand.NewSource(4701))
	ab := gen.Letters(2)
	atoms := ab.Names()
	agree := 0
	for i := 0; i < samples; i++ {
		sys := randomSystem(rng, ab, 1+rng.Intn(4))
		p := core.FromFormula(randomGeneralFormula(rng, atoms, 3), nil)
		direct, err := core.Satisfies(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			return Result{}, err
		}
		conj, err := core.SatisfiesViaConjunction(sys, p)
		if err != nil {
			return Result{}, err
		}
		if direct.Holds == conj {
			agree++
		}
	}
	return Result{
		ID: "E9", Artifact: "Theorem 4.7", Title: "satisfaction ⟺ relative liveness ∧ relative safety",
		Observations: []Observation{
			claim("agreement", fmt.Sprintf("%d/%d", agree, samples), "equivalence",
				agree == samples),
		},
	}, nil
}

// E10MachineClosure samples the machine-closure connection stated after
// Theorem 4.5: P relative liveness of L_ω ⟺ (L_ω, P ∩ L_ω) machine
// closed, comparing three decision routes.
func E10MachineClosure(samples int) (Result, error) {
	rng := rand.New(rand.NewSource(4601))
	ab := gen.Letters(2)
	atoms := ab.Names()
	agreeMC, agreeDirect, agreeTopo := 0, 0, 0
	agreeRSDirect, agreeRSTopo := 0, 0
	for i := 0; i < samples; i++ {
		sys := randomSystem(rng, ab, 1+rng.Intn(4))
		p := core.FromFormula(randomGeneralFormula(rng, atoms, 3), nil)
		rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			return Result{}, err
		}
		mc, err := core.RelativeLivenessViaMachineClosure(sys, p)
		if err != nil {
			return Result{}, err
		}
		dir, err := core.RelativeLivenessDirect(sys, p)
		if err != nil {
			return Result{}, err
		}
		topo, err := core.RelativeLivenessTopological(sys, p)
		if err != nil {
			return Result{}, err
		}
		if rl.Holds == mc.Holds {
			agreeMC++
		}
		if rl.Holds == dir.Holds {
			agreeDirect++
		}
		if rl.Holds == topo.Holds {
			agreeTopo++
		}
		rs, err := core.RelativeSafety(context.Background(), core.NewPipelineCells(sys, p))
		if err != nil {
			return Result{}, err
		}
		rsDir, err := core.RelativeSafetyDirect(sys, p)
		if err != nil {
			return Result{}, err
		}
		rsTopo, err := core.RelativeSafetyTopological(sys, p)
		if err != nil {
			return Result{}, err
		}
		if rs.Holds == rsDir.Holds {
			agreeRSDirect++
		}
		if rs.Holds == rsTopo.Holds {
			agreeRSTopo++
		}
	}
	return Result{
		ID: "E10", Artifact: "Definition 4.6", Title: "agreement of all independent decision routes",
		Observations: []Observation{
			claim("RL: machine-closure route", fmt.Sprintf("%d/%d", agreeMC, samples),
				"equivalence (after Thm 4.5)", agreeMC == samples),
			claim("RL: Definition 4.1 route", fmt.Sprintf("%d/%d", agreeDirect, samples),
				"equivalence (Lemma 4.3)", agreeDirect == samples),
			claim("RL: Cantor-density route", fmt.Sprintf("%d/%d", agreeTopo, samples),
				"equivalence (Lemma 4.9)", agreeTopo == samples),
			claim("RS: Definition 4.2 route", fmt.Sprintf("%d/%d", agreeRSDirect, samples),
				"equivalence (Lemma 4.4)", agreeRSDirect == samples),
			claim("RS: Cantor-closedness route", fmt.Sprintf("%d/%d", agreeRSTopo, samples),
				"equivalence (Lemma 4.10)", agreeRSTopo == samples),
		},
	}, nil
}
