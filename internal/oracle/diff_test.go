package oracle_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"relive/internal/alphabet"
	"relive/internal/core"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/ts"
	"relive/internal/word"
)

// The differential suite: randomized (system, property) pairs on which
// internal/core's optimized pipeline and internal/oracle's naive
// reference must agree on all three verdicts of the paper —
// satisfaction (L_ω ⊆ P), relative liveness (Def 4.1) and relative
// safety (Def 4.2).
//
// The oracle's bounded verdicts are compared asymmetrically:
//
//   - core says Holds  → the oracle's exhaustive bounded search must
//     find no counterexample (any find would be exact, hence a real
//     disagreement);
//   - core says ¬Holds → the oracle must exactly confirm core's typed
//     witness, a complete check for that word/lasso.
//
// Run with a different seed or a longer sweep via:
//
//	go test ./internal/oracle -run Differential -args -seed 7 -pairs 1000
//	go test ./internal/oracle -args -quickchecks
var (
	seedFlag  = flag.Int64("seed", 1, "root seed of the randomized differential suite")
	pairsFlag = flag.Int("pairs", 520, "number of (system, property) pairs per run")
	quickFlag = flag.Bool("quickchecks", false, "longer randomized sweep: 4x pairs and larger shapes")
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// diffShape bounds the generated pairs.
type diffShape struct {
	maxStates    int
	maxDepth     int
	maxAutoState int
	bounds       oracle.Bounds
}

func defaultShape() diffShape {
	return diffShape{maxStates: 6, maxDepth: 3, maxAutoState: 3, bounds: oracle.DefaultBounds()}
}

func quickShape() diffShape {
	return diffShape{maxStates: 7, maxDepth: 3, maxAutoState: 4,
		bounds: oracle.Bounds{WordLen: 6, LassoPrefix: 3, LassoLoop: 3}}
}

// pairCase is one generated differential input. The oracle property
// carries the pre-translated automaton so each pair translates once,
// and, for formula properties, keeps the formula for direct-semantics
// membership checks.
type pairCase struct {
	sys     *ts.System
	coreP   core.Property
	oracleP oracle.Property
	desc    string
}

// translationCap skips pathological tableau blowups: the oracle's
// product is quadratic in the automaton size, and a rare 100+-state
// translation of a depth-3 formula would dominate the suite's runtime
// without adding coverage. Skips are counted and logged.
const translationCap = 64

func genPairCase(rng *rand.Rand, ab *alphabet.Alphabet, shape diffShape) (pairCase, bool) {
	n := 3 + rng.Intn(shape.maxStates-2)
	sys := gen.System(rng, ab, n, 0.25+0.35*rng.Float64())
	if rng.Float64() < 0.7 {
		f := gen.Formula(rng, []string{"a", "b"}, 1+rng.Intn(shape.maxDepth))
		pa, _ := ltl.TranslateBuchi(nil, f, ltl.Canonical(ab))
		if pa.NumStates() > translationCap {
			return pairCase{}, false
		}
		return pairCase{
			sys:     sys,
			coreP:   core.FromFormula(f, nil),
			oracleP: oracle.Property{Formula: f, Auto: pa},
			desc:    fmt.Sprintf("formula %s", f),
		}, true
	}
	cfg := gen.Config{States: 2 + rng.Intn(shape.maxAutoState-1), Density: 0.5, AcceptRatio: 0.5}
	b := gen.Buchi(rng, cfg, ab)
	return pairCase{
		sys:     sys,
		coreP:   core.FromAutomaton(b),
		oracleP: oracle.FromAutomaton(b),
		desc:    fmt.Sprintf("Büchi automaton\n%s", b),
	}, true
}

// diffFailure re-runs every differential comparison on a candidate
// system and reports the first disagreement, or "" when core and oracle
// agree. It is both the test body and the shrinking predicate.
func diffFailure(sys *ts.System, c pairCase, words []word.Word, lassos []word.Lasso) string {
	ab := sys.Alphabet()
	rep, err := core.CheckAll(context.Background(), core.NewPipelineCells(sys, c.coreP))
	if err != nil {
		return fmt.Sprintf("CheckAll: %v", err)
	}
	// Typed witnesses for the oracle's exact confirmations.
	sat, err := core.Satisfies(context.Background(), core.NewPipelineCells(sys, c.coreP))
	if err != nil {
		return fmt.Sprintf("Satisfies: %v", err)
	}
	rl, err := core.RelativeLiveness(context.Background(), core.NewPipelineCells(sys, c.coreP))
	if err != nil {
		return fmt.Sprintf("RelativeLiveness: %v", err)
	}
	rs, err := core.RelativeSafety(context.Background(), core.NewPipelineCells(sys, c.coreP))
	if err != nil {
		return fmt.Sprintf("RelativeSafety: %v", err)
	}
	if sat.Holds != rep.Satisfied || rl.Holds != rep.RelativeLiveness || rs.Holds != rep.RelativeSafety {
		return fmt.Sprintf("CheckAll report disagrees with typed calls: report (sat=%v rl=%v rs=%v) typed (sat=%v rl=%v rs=%v)",
			rep.Satisfied, rep.RelativeLiveness, rep.RelativeSafety, sat.Holds, rl.Holds, rs.Holds)
	}

	// Satisfaction.
	if sat.Holds {
		holds, cex, err := oracle.Satisfaction(sys, c.oracleP, lassos)
		if err != nil {
			return fmt.Sprintf("oracle.Satisfaction: %v", err)
		}
		if !holds {
			return fmt.Sprintf("core says L_ω ⊆ P but oracle found behavior %s ∉ P", cex.String(ab))
		}
	} else {
		ok, err := oracle.ConfirmCounterexample(sys, c.oracleP, sat.Counterexample)
		if err != nil {
			return fmt.Sprintf("ConfirmCounterexample: %v", err)
		}
		if !ok {
			return fmt.Sprintf("core counterexample %s not confirmed: not a behavior outside P",
				sat.Counterexample.String(ab))
		}
	}

	// Relative liveness.
	if rl.Holds {
		holds, w, err := oracle.RelativeLiveness(sys, c.oracleP, words)
		if err != nil {
			return fmt.Sprintf("oracle.RelativeLiveness: %v", err)
		}
		if !holds {
			return fmt.Sprintf("core says relative liveness holds but oracle found bad prefix %s", w.String(ab))
		}
	} else {
		ok, err := oracle.ConfirmBadPrefix(sys, c.oracleP, rl.BadPrefix)
		if err != nil {
			return fmt.Sprintf("ConfirmBadPrefix: %v", err)
		}
		if !ok {
			return fmt.Sprintf("core bad prefix %s not confirmed: not in pre(L_ω) \\ pre(L_ω ∩ P)",
				rl.BadPrefix.String(ab))
		}
	}

	// Relative safety.
	if rs.Holds {
		holds, v, err := oracle.RelativeSafety(sys, c.oracleP, lassos)
		if err != nil {
			return fmt.Sprintf("oracle.RelativeSafety: %v", err)
		}
		if !holds {
			return fmt.Sprintf("core says relative safety holds but oracle found violation %s", v.String(ab))
		}
	} else {
		ok, err := oracle.ConfirmSafetyViolation(sys, c.oracleP, rs.Violation)
		if err != nil {
			return fmt.Sprintf("ConfirmSafetyViolation: %v", err)
		}
		if !ok {
			return fmt.Sprintf("core violation %s not confirmed per Definition 4.2", rs.Violation.String(ab))
		}
	}
	return ""
}

func TestDifferentialCoreVsOracle(t *testing.T) {
	shape := defaultShape()
	pairs := *pairsFlag
	if *quickFlag {
		shape = quickShape()
		pairs *= 4
	}
	rng := newRng(*seedFlag)
	ab := gen.Letters(2)
	words := gen.Words(ab, shape.bounds.WordLen)
	lassos := gen.Lassos(ab, shape.bounds.LassoPrefix, shape.bounds.LassoLoop)

	start := time.Now()
	checked, skipped := 0, 0
	stats := map[string]int{}
	for checked < pairs {
		if skipped > 4*pairs {
			t.Fatalf("too many skipped pairs (%d) — translation cap too tight", skipped)
		}
		c, ok := genPairCase(rng, ab, shape)
		if !ok {
			skipped++
			continue
		}
		if msg := diffFailure(c.sys, c, words, lassos); msg != "" {
			// Minimize before reporting: keep shrinking while the same
			// comparison still disagrees.
			small := gen.ShrinkSystem(c.sys, func(s *ts.System) bool {
				return diffFailure(s, c, words, lassos) != ""
			})
			t.Fatalf("pair %d (seed %d) disagrees: %s\nproperty: %s\nshrunk system:\n%s",
				checked, *seedFlag, diffFailure(small, c, words, lassos), c.desc, small.FormatString())
		}
		checked++
		rep, _ := core.CheckAll(context.Background(), core.NewPipelineCells(c.sys, c.coreP))
		if rep != nil {
			if rep.Satisfied {
				stats["satisfied"]++
			}
			if rep.RelativeLiveness {
				stats["relative-liveness"]++
			}
			if rep.RelativeSafety {
				stats["relative-safety"]++
			}
		}
	}
	t.Logf("differential suite: %d pairs in %v (skipped %d oversized translations); verdict rates: %v",
		checked, time.Since(start).Round(time.Millisecond), skipped, stats)
}
