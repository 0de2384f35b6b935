package oracle_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"relive/internal/core"
	"relive/internal/fairness"
	"relive/internal/gen"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/ts"
)

// Differential and metamorphic battery for the statistical engine:
// core.CheckStatistical (uniform random-walk sampling with bottom-SCC
// lasso detection) against the exact fair-satisfaction check
// core.AllFairRunsSatisfy(ctx, ·, ·, fairness.Strong) — the paper's Section 9
// correspondence: under the uniform scheduler a run almost surely
// settles into a bottom SCC and sweeps it strongly fairly, so "holds
// with probability 1" coincides with "all strongly fair runs satisfy P".
//
// The comparison is asymmetric, and — unlike the confidence interval —
// both directions are exact:
//
//   - exact says Holds → every settled sample's lasso is a strongly
//     fair run (bottom-SCC sweep), so every settled sample must hit and
//     the sampled verdict can never be "fails";
//   - sampled says Fails → the witness must be a genuine behavior of
//     the system violating the property (confirmed independently via
//     oracle.IsBehavior and the direct ltl.EvalLasso semantics), which
//     exactly refutes the exact verdict.
//
// Shares the -seed/-pairs/-quickchecks flags with the main suite.

// statBudget is the per-trial sampling budget: small systems settle
// within a few dozen steps, and 120 walks decide every bottom SCC of a
// ≤7-state graph with overwhelming probability.
var statBudget = core.StatOptions{Samples: 120, Steps: 96, Confidence: 0.99}

// statCase is one generated statistical differential input. The seed is
// drawn once per case so the shrinking predicate replays the identical
// sampling run on every candidate system.
type statCase struct {
	sys  *ts.System
	f    *ltl.Formula
	p    core.Property
	seed int64
	desc string
}

func genStatCase(rng *rand.Rand, shape diffShape) statCase {
	ab := gen.Letters(3)
	n := 3 + rng.Intn(shape.maxStates-2)
	sys := gen.System(rng, ab, n, 0.25+0.35*rng.Float64())
	f := gen.Formula(rng, []string{"a", "b"}, 1+rng.Intn(shape.maxDepth))
	seed := rng.Int63()
	return statCase{
		sys:  sys,
		f:    f,
		p:    core.FromFormula(f, nil),
		seed: seed,
		desc: fmt.Sprintf("formula %s seed %d", f, seed),
	}
}

// diffStatFailure runs the exact-vs-sampled comparison on a candidate
// system and reports the first disagreement, or "". It is both the test
// body and the shrinking predicate (deterministic: the case seed fixes
// the sampling run).
func diffStatFailure(sys *ts.System, c statCase) string {
	exact, _, err := core.AllFairRunsSatisfy(context.Background(), sys, c.p, fairness.Strong)
	if err != nil {
		return fmt.Sprintf("AllFairRunsSatisfy: %v", err)
	}
	o := statBudget
	o.Seed = c.seed
	rep, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), c.p, o)
	if err != nil {
		return fmt.Sprintf("CheckStatistical: %v", err)
	}

	// Interval sanity on every report.
	if rep.CILow < 0 || rep.CIHigh > 1 || rep.CILow > rep.CIHigh {
		return fmt.Sprintf("malformed interval [%v, %v]", rep.CILow, rep.CIHigh)
	}
	if rep.Settled > 0 && (rep.Estimate < rep.CILow-1e-9 || rep.Estimate > rep.CIHigh+1e-9) {
		return fmt.Sprintf("estimate %v outside [%v, %v]", rep.Estimate, rep.CILow, rep.CIHigh)
	}

	if exact {
		// Every settled sample is a strongly fair run; exact Holds means
		// each of them satisfies the property. The sampled interval must
		// bracket the true probability 1.
		if rep.Verdict == core.StatVerdictFails {
			return fmt.Sprintf("exact says all strongly fair runs satisfy %s, sampler found counterexample %v (%v)^ω",
				c.f, rep.Counterexample, rep.CounterexampleLoop)
		}
		if rep.Hits != rep.Settled {
			return fmt.Sprintf("exact Holds but only %d/%d settled samples hit", rep.Hits, rep.Settled)
		}
		if rep.Settled > 0 && rep.CIHigh != 1 {
			return fmt.Sprintf("all %d settled samples hit but CIHigh = %v", rep.Settled, rep.CIHigh)
		}
	}
	if rep.Verdict == core.StatVerdictFails {
		l, ok := rep.Witness()
		if !ok || !l.Valid() {
			return "fails verdict without a witness lasso"
		}
		if !oracle.IsBehavior(sys, l) {
			return fmt.Sprintf("sampled counterexample %s is not a behavior of the system",
				l.String(sys.Alphabet()))
		}
		sat, err := ltl.EvalLasso(c.f, l, ltl.Canonical(sys.Alphabet()))
		if err != nil {
			return fmt.Sprintf("EvalLasso: %v", err)
		}
		if sat {
			return fmt.Sprintf("sampled counterexample %s satisfies %s", l.String(sys.Alphabet()), c.f)
		}
		if exact {
			return "sampled Fails against exact Holds (confirmed witness — exact check is wrong?)"
		}
	}
	return ""
}

func TestDifferentialStatistical(t *testing.T) {
	shape := defaultShape()
	pairs := *pairsFlag / 2
	if pairs < 200 {
		pairs = 200
	}
	if *quickFlag {
		shape = quickShape()
		pairs *= 4
	}
	rng := newRng(*seedFlag + 14)

	start := time.Now()
	stats := map[string]int{}
	for trial := 0; trial < pairs; trial++ {
		c := genStatCase(rng, shape)
		if msg := diffStatFailure(c.sys, c); msg != "" {
			small := gen.ShrinkSystem(c.sys, func(s *ts.System) bool {
				return diffStatFailure(s, c) != ""
			})
			t.Fatalf("trial %d (seed %d) disagrees: %s\ncase: %s\nshrunk system:\n%s",
				trial, *seedFlag, diffStatFailure(small, c), c.desc, small.FormatString())
		}
		o := statBudget
		o.Seed = c.seed
		rep, _ := core.CheckStatistical(context.Background(), core.NewSystemCells(c.sys), c.p, o)
		switch {
		case rep.Vacuous:
			stats["vacuous"]++
		default:
			stats[rep.Verdict]++
		}
	}
	t.Logf("statistical differential: %d trials in %v; verdicts: %v",
		pairs, time.Since(start).Round(time.Millisecond), stats)
	if stats[core.StatVerdictHolds] == 0 || stats[core.StatVerdictFails] == 0 {
		t.Errorf("degenerate verdict mix %v; both holds and fails should be exercised", stats)
	}
}

// TestLawStatisticalSeedDeterminism: the report is a byte-identical
// function of (system, property, seed, samples, steps, confidence) —
// replayed runs and different worker counts marshal to the same JSON.
// This is the contract the serving layer's cache/store/router replay
// rests on.
func TestLawStatisticalSeedDeterminism(t *testing.T) {
	rng := newRng(*seedFlag + 15)
	ab := gen.Letters(3)
	for trial := 0; trial < 40; trial++ {
		sys := gen.System(rng, ab, 3+rng.Intn(4), 0.25+0.35*rng.Float64())
		f := gen.Formula(rng, []string{"a", "b"}, 1+rng.Intn(2))
		o := statBudget
		o.Seed = rng.Int63()
		var base []byte
		for _, workers := range []int{1, 3, 8} {
			o.Workers = workers
			rep, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), core.FromFormula(f, nil), o)
			if err != nil {
				t.Fatalf("trial %d: CheckStatistical: %v", trial, err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = got
			} else if string(got) != string(base) {
				t.Fatalf("trial %d: workers=%d diverged:\n got %s\nwant %s", trial, workers, got, base)
			}
		}
	}
}

// TestLawStatisticalBudgetMonotonicity: the honest form of "more
// samples ⇒ tighter interval". Because sample i's walk depends only on
// (seed, i), a larger budget replays the smaller budget's walks as a
// prefix, so the settled count is non-decreasing in the budget; and on
// exact-Holds systems every settled sample hits, where the
// Clopper–Pearson lower bound (α/2)^(1/settled) is strictly increasing
// in the settled count.
func TestLawStatisticalBudgetMonotonicity(t *testing.T) {
	rng := newRng(*seedFlag + 16)
	ab := gen.Letters(3)
	conclusive := 0
	for trial := 0; trial < 400 && conclusive < 60; trial++ {
		sys := gen.System(rng, ab, 3+rng.Intn(4), 0.25+0.35*rng.Float64())
		f := gen.Formula(rng, []string{"a", "b"}, 1+rng.Intn(2))
		p := core.FromFormula(f, nil)
		exact, _, err := core.AllFairRunsSatisfy(context.Background(), sys, p, fairness.Strong)
		if err != nil || !exact {
			continue
		}
		seed := rng.Int63()
		prevSettled, prevLow := -1, -1.0
		for _, samples := range []int{40, 120, 360} {
			rep, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), p,
				core.StatOptions{Seed: seed, Samples: samples, Steps: 96, Confidence: 0.99})
			if err != nil {
				t.Fatalf("trial %d: CheckStatistical(%d): %v", trial, samples, err)
			}
			if rep.Vacuous {
				break
			}
			if rep.Hits != rep.Settled {
				t.Fatalf("trial %d: exact Holds but %d/%d hits\n%s", trial, rep.Hits, rep.Settled, sys.FormatString())
			}
			if rep.Settled < prevSettled {
				t.Fatalf("trial %d: settled count shrank %d → %d at budget %d",
					trial, prevSettled, rep.Settled, samples)
			}
			if prevLow >= 0 {
				if rep.CILow < prevLow {
					t.Fatalf("trial %d: all-hits lower bound shrank %v → %v at budget %d",
						trial, prevLow, rep.CILow, samples)
				}
				if rep.Settled > prevSettled && prevSettled > 0 && rep.CILow <= prevLow {
					t.Fatalf("trial %d: settled grew %d → %d but lower bound did not: %v → %v",
						trial, prevSettled, rep.Settled, prevLow, rep.CILow)
				}
			}
			prevSettled, prevLow = rep.Settled, rep.CILow
		}
		if prevSettled > 0 {
			conclusive++
		}
	}
	if conclusive < 60 {
		t.Fatalf("only %d conclusive trials", conclusive)
	}
}

// TestLawStatisticalFunctional: on a functional system (exactly one
// outgoing transition per state) there is exactly one run, it is
// trivially fair, and sampling is exhaustive — the statistical verdict
// must equal the exact fair-satisfaction verdict outright, with a
// degenerate interval on the hit side.
func TestLawStatisticalFunctional(t *testing.T) {
	rng := newRng(*seedFlag + 17)
	ab := gen.Letters(3)
	holds, fails := 0, 0
	for trial := 0; trial < 200; trial++ {
		sys := functionalSystem(rng, ab, 2+rng.Intn(5))
		f := gen.Formula(rng, []string{"a", "b"}, 1+rng.Intn(2))
		p := core.FromFormula(f, nil)
		exact, _, err := core.AllFairRunsSatisfy(context.Background(), sys, p, fairness.Strong)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), p,
			core.StatOptions{Seed: int64(trial), Samples: 50, Steps: 64})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Vacuous {
			if !exact {
				t.Fatalf("trial %d: vacuous sampled report but exact says violated\n%s", trial, sys.FormatString())
			}
			continue
		}
		if rep.Settled != rep.Samples {
			t.Fatalf("trial %d: single-run system settled %d/%d samples\n%s",
				trial, rep.Settled, rep.Samples, sys.FormatString())
		}
		want := core.StatVerdictFails
		if exact {
			want = core.StatVerdictHolds
		}
		if rep.Verdict != want {
			t.Fatalf("trial %d: functional law violated: exact=%v sampled=%s\nφ=%s\n%s",
				trial, exact, rep.Verdict, f, sys.FormatString())
		}
		if exact {
			holds++
			if rep.Estimate != 1 || rep.CIHigh != 1 {
				t.Fatalf("trial %d: exhaustive hit run with estimate %v, CIHigh %v", trial, rep.Estimate, rep.CIHigh)
			}
		} else {
			fails++
			if rep.Estimate != 0 || rep.CILow != 0 {
				t.Fatalf("trial %d: exhaustive miss run with estimate %v, CILow %v", trial, rep.Estimate, rep.CILow)
			}
		}
	}
	if holds == 0 || fails == 0 {
		t.Errorf("degenerate mix (holds=%d fails=%d); both sides should be exercised", holds, fails)
	}
}

// TestLawStatisticalVacuous: the sampled check agrees with trimming on
// vacuity — a system without infinite behavior yields a vacuous Holds,
// and a vacuous report never carries samples.
func TestLawStatisticalVacuous(t *testing.T) {
	rng := newRng(*seedFlag + 18)
	ab := gen.Letters(3)
	vacuous := 0
	for trial := 0; trial < 200 && vacuous < 30; trial++ {
		sys := gen.System(rng, ab, 2+rng.Intn(3), 0.15+0.2*rng.Float64())
		f := gen.Formula(rng, []string{"a", "b"}, 1)
		rep, err := core.CheckStatistical(context.Background(), core.NewSystemCells(sys), core.FromFormula(f, nil),
			core.StatOptions{Seed: int64(trial), Samples: 20, Steps: 32})
		if err != nil {
			t.Fatal(err)
		}
		_, trimErr := sys.Trim()
		if rep.Vacuous != (trimErr != nil) {
			t.Fatalf("trial %d: vacuous=%v but Trim err=%v\n%s", trial, rep.Vacuous, trimErr, sys.FormatString())
		}
		if rep.Vacuous {
			vacuous++
			if !rep.Holds || rep.Samples != 0 || rep.Verdict != core.StatVerdictHolds {
				t.Fatalf("trial %d: malformed vacuous report %+v", trial, rep)
			}
		}
	}
	if vacuous < 30 {
		t.Fatalf("only %d vacuous systems sampled", vacuous)
	}
}
