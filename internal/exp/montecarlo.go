package exp

import (
	"context"
	"fmt"

	"relive/internal/core"
	"relive/internal/ltl"
	"relive/internal/paper"
	"relive/internal/ts"
)

// E13MonteCarlo explores the paper's concluding remark (Section 9):
// relative liveness properties informally say "almost all computations
// satisfy the property", connecting them to probabilistic verification
// [26, 27]. Under the uniform random scheduler a finite-state system
// almost surely settles into a bottom SCC and sweeps it fairly, so a
// relative liveness property holds with probability 1 — and a property
// that is not relative liveness (Figure 3) fails almost surely once the
// unrecoverable region absorbs the run. The experiment estimates both
// probabilities with the statistical engine (core.CheckStatistical);
// each estimate is taken over the walks that settled into a bottom SCC.
func E13MonteCarlo() (Result, error) {
	o := core.StatOptions{Seed: 1337, Samples: 200, Steps: 160}
	estimate := func(sys *ts.System, f *ltl.Formula) (*core.StatisticalReport, error) {
		return core.CheckStatistical(context.Background(), core.NewSystemCells(sys), core.FromFormula(f, nil), o)
	}

	fig2, err := paper.Fig2System()
	if err != nil {
		return Result{}, err
	}
	r2, err := estimate(fig2, paper.PropertyInfResults())
	if err != nil {
		return Result{}, err
	}
	r3, err := estimate(paper.Fig3System(), paper.PropertyInfResults())
	if err != nil {
		return Result{}, err
	}
	r5, err := estimate(paper.Section5System(), paper.Section5Property())
	if err != nil {
		return Result{}, err
	}

	return Result{
		ID: "E13", Artifact: "§9 outlook", Title: "relative liveness ≈ probability-1 satisfaction (Monte Carlo)",
		Observations: []Observation{
			claim("P(□◇result) on Figure 2", fmt.Sprintf("%.3f", r2.Estimate),
				"relative liveness ⇒ almost all computations satisfy it", r2.Estimate == 1.0),
			claim("P(□◇result) on Figure 3", fmt.Sprintf("%.3f", r3.Estimate),
				"not relative liveness ⇒ fails almost surely", r3.Estimate == 0.0),
			claim("P(◇(a ∧ ○a)) on {a,b}^ω", fmt.Sprintf("%.3f", r5.Estimate),
				"relative liveness ⇒ probability ≈ 1", r5.Estimate >= 0.95),
			info("samples", fmt.Sprintf("%d runs × %d steps; settled %d, %d, %d",
				o.Samples, o.Steps, r2.Settled, r3.Settled, r5.Settled)),
		},
	}, nil
}
