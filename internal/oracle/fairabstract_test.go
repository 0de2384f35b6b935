package oracle_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/core"
	"relive/internal/fairness"
	"relive/internal/gen"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/ts"
)

// Differential and metamorphic battery for the fair-abstract check:
// core.CheckFairAbstract (trim → h⁻¹(¬P) → pre-filter → Streett
// fair emptiness) against the oracle's bounded enumeration of fair
// lassos, asymmetrically like the main suite — a core Fails is exactly
// confirmed, a core Holds must survive the oracle's exhaustive bounded
// search — plus the named laws relating the new verdict class to the
// existing checks. Shares the -seed/-pairs/-quickchecks flags with
// TestDifferentialCoreVsOracle.

// fairCase is one generated fair-abstract differential input.
type fairCase struct {
	sys     *ts.System
	h       *hom.Hom
	kind    fairness.Kind
	okind   oracle.FairnessKind
	eta     *ltl.Formula
	coreP   core.Property
	oracleP oracle.Property
	desc    string
}

func genFairCase(rng *rand.Rand, src *alphabet.Alphabet) (fairCase, bool) {
	sys := gen.System(rng, src, 2+rng.Intn(4), 0.25+0.4*rng.Float64())
	var h *hom.Hom
	if rng.Intn(2) == 0 {
		h = gen.IdentityHom(rng, src, 0.4)
	} else {
		h = gen.Hom(rng, src, 0.4)
	}
	eta := gen.Formula(rng, h.Dest().Names(), 1+rng.Intn(2))
	pa, _ := ltl.TranslateBuchi(nil, eta, ltl.Canonical(h.Dest()))
	if pa.NumStates() > translationCap {
		return fairCase{}, false
	}
	kind, okind := fairness.Strong, oracle.StronglyFair
	if rng.Intn(2) == 0 {
		kind, okind = fairness.Weak, oracle.WeaklyFair
	}
	return fairCase{
		sys:     sys,
		h:       h,
		kind:    kind,
		okind:   okind,
		eta:     eta,
		coreP:   core.FromFormula(eta, nil),
		oracleP: oracle.Property{Formula: eta, Lab: ltl.Canonical(h.Dest()), Auto: pa},
		desc:    fmt.Sprintf("η=%s h=%s fairness=%s", eta, h, core.FairnessKindName(kind)),
	}, true
}

// diffFairFailure runs the fair-abstract comparison on a candidate
// system and reports the first disagreement, or "". It is both the test
// body and the shrinking predicate.
func diffFairFailure(sys *ts.System, c fairCase, bounds oracle.Bounds) string {
	rep, err := core.CheckFairAbstract(context.Background(), core.NewSystemCells(sys), c.h, c.kind, c.coreP)
	if err != nil {
		return fmt.Sprintf("CheckFairAbstract: %v", err)
	}

	if rep.Holds {
		el, found, err := oracle.FairAbstractViolation(sys, c.h, c.okind, c.oracleP, bounds)
		if err != nil {
			return fmt.Sprintf("oracle.FairAbstractViolation: %v", err)
		}
		if found {
			return fmt.Sprintf("core says all fair runs satisfy η through h, oracle found fair violating run %s (%s)^ω",
				wordOf(sys, el.Prefix), wordOf(sys, el.Loop))
		}
		return ""
	}
	run := rep.Witness()
	if run == nil {
		return "core Fails without a witness run"
	}
	el := oracle.EdgeLasso{Prefix: run.Prefix, Loop: run.Loop}
	ok, err := oracle.ConfirmFairAbstractViolation(sys, c.h, c.okind, c.oracleP, el)
	if err != nil {
		return fmt.Sprintf("ConfirmFairAbstractViolation: %v", err)
	}
	if !ok {
		return fmt.Sprintf("core witness %s (%s)^ω not confirmed: not a fair run with a defined h-image violating η",
			wordOf(sys, el.Prefix), wordOf(sys, el.Loop))
	}
	if len(rep.AbstractLoop) == 0 {
		return "failing report without an abstract image"
	}
	return ""
}

func wordOf(sys *ts.System, es []ts.Edge) string {
	out := ""
	for i, e := range es {
		if i > 0 {
			out += " "
		}
		out += sys.Alphabet().Name(e.Sym)
	}
	return out
}

func TestDifferentialFairAbstract(t *testing.T) {
	bounds := oracle.Bounds{WordLen: 5, LassoPrefix: 2, LassoLoop: 4}
	pairs := *pairsFlag
	if *quickFlag {
		pairs *= 4
		bounds.LassoLoop = 5
	}
	rng := newRng(*seedFlag + 9)
	src := gen.Letters(3)

	start := time.Now()
	checked, skipped := 0, 0
	stats := map[string]int{}
	for checked < pairs {
		if skipped > 4*pairs {
			t.Fatalf("too many skipped pairs (%d) — translation cap too tight", skipped)
		}
		c, ok := genFairCase(rng, src)
		if !ok {
			skipped++
			continue
		}
		// Σ'-normal-form rejections depend only on the formula: skip them
		// up front so the shrinker never sees an erroring case.
		if _, err := core.CheckFairAbstract(context.Background(), core.NewSystemCells(c.sys), c.h, c.kind, c.coreP); err != nil {
			skipped++
			continue
		}
		if msg := diffFairFailure(c.sys, c, bounds); msg != "" {
			small := gen.ShrinkSystem(c.sys, func(s *ts.System) bool {
				return diffFairFailure(s, c, bounds) != ""
			})
			t.Fatalf("pair %d (seed %d) disagrees: %s\ncase: %s\nshrunk system:\n%s",
				checked, *seedFlag, diffFairFailure(small, c, bounds), c.desc, small.FormatString())
		}
		checked++
		rep, _ := core.CheckFairAbstract(context.Background(), core.NewSystemCells(c.sys), c.h, c.kind, c.coreP)
		switch {
		case rep.Vacuous:
			stats["vacuous"]++
		case rep.Holds:
			stats["holds"]++
		default:
			stats["fails"]++
		}
	}
	t.Logf("fair-abstract differential: %d pairs in %v (skipped %d); verdicts: %v",
		checked, time.Since(start).Round(time.Millisecond), skipped, stats)
}

// TestLawFairAbstractIdentityHom: under the identity homomorphism
// (nothing hidden, nothing renamed) the fair-abstract check is exactly
// the plain "all fair runs satisfy P" check.
func TestLawFairAbstractIdentityHom(t *testing.T) {
	rng := newRng(*seedFlag + 10)
	src := gen.Letters(3)
	conclusive := 0
	for trial := 0; trial < 400 && conclusive < 80; trial++ {
		sys := gen.System(rng, src, 2+rng.Intn(4), 0.25+0.4*rng.Float64())
		h := hom.Identity(src, src.Names()...)
		eta := gen.Formula(rng, src.Names(), 1+rng.Intn(2))
		kind := fairness.Strong
		if rng.Intn(2) == 0 {
			kind = fairness.Weak
		}
		rep, err := core.CheckFairAbstract(context.Background(), core.NewSystemCells(sys), h, kind, core.FromFormula(eta, nil))
		if err != nil {
			continue
		}
		direct, _, err := core.AllFairRunsSatisfy(context.Background(), sys, core.FromFormula(eta, nil), kind)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Holds != direct {
			t.Fatalf("trial %d: identity-hom law violated: fair-abstract=%v direct=%v\nη=%s %s\n%s",
				trial, rep.Holds, direct, eta, core.FairnessKindName(kind), sys.FormatString())
		}
		conclusive++
	}
	if conclusive < 80 {
		t.Fatalf("only %d conclusive trials", conclusive)
	}
}

// TestLawFairAbstractHideNothing: a homomorphism hiding no letter (but
// possibly renaming and merging) keeps every run's image defined, so
// the fair-abstract verdict equals the plain fair check of η read back
// on the concrete alphabet through the h-labeling λ_{hΣΣ'}.
func TestLawFairAbstractHideNothing(t *testing.T) {
	rng := newRng(*seedFlag + 11)
	src := gen.Letters(3)
	conclusive := 0
	for trial := 0; trial < 400 && conclusive < 80; trial++ {
		sys := gen.System(rng, src, 2+rng.Intn(4), 0.25+0.4*rng.Float64())
		h := gen.Hom(rng, src, 0) // hideProb 0: nothing hidden
		eta := gen.Formula(rng, h.Dest().Names(), 1+rng.Intn(2))
		kind := fairness.Strong
		if rng.Intn(2) == 0 {
			kind = fairness.Weak
		}
		rep, err := core.CheckFairAbstract(context.Background(), core.NewSystemCells(sys), h, kind, core.FromFormula(eta, nil))
		if err != nil {
			continue
		}
		direct, _, err := core.AllFairRunsSatisfy(context.Background(), sys, core.FromFormula(eta, h.Labeling()), kind)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Holds != direct {
			t.Fatalf("trial %d: hide-nothing law violated: fair-abstract=%v direct=%v\nη=%s h=%s %s\n%s",
				trial, rep.Holds, direct, eta, h, core.FairnessKindName(kind), sys.FormatString())
		}
		conclusive++
	}
	if conclusive < 80 {
		t.Fatalf("only %d conclusive trials", conclusive)
	}
}

// TestLawFairAbstractTrivialFairness: on a deterministic functional
// system (exactly one outgoing transition per state) every infinite run
// is trivially fair under both notions, so the fair-abstract verdict
// collapses to plain satisfaction through h: lim(L) ∩ h⁻¹(¬η) = ∅.
func TestLawFairAbstractTrivialFairness(t *testing.T) {
	rng := newRng(*seedFlag + 12)
	src := gen.Letters(3)
	conclusive := 0
	for trial := 0; trial < 400 && conclusive < 80; trial++ {
		sys := functionalSystem(rng, src, 2+rng.Intn(5))
		h := gen.Hom(rng, src, 0.4)
		eta := gen.Formula(rng, h.Dest().Names(), 1+rng.Intn(2))
		for _, kind := range []fairness.Kind{fairness.Strong, fairness.Weak} {
			rep, err := core.CheckFairAbstract(context.Background(), core.NewSystemCells(sys), h, kind, core.FromFormula(eta, nil))
			if err != nil {
				continue
			}
			trimmed, err := sys.Trim()
			if err != nil {
				if !rep.Holds || !rep.Vacuous {
					t.Fatalf("trial %d: no infinite behavior but report %+v", trial, rep)
				}
				conclusive++
				continue
			}
			behaviors, err := trimmed.Behaviors()
			if err != nil {
				t.Fatal(err)
			}
			notEta, _ := ltl.TranslateNegation(nil, eta, ltl.Canonical(h.Dest()))
			plain := buchi.IntersectEmpty(behaviors, h.InverseImageBuchi(notEta))
			if rep.Holds != plain {
				t.Fatalf("trial %d: trivial-fairness law violated: fair-abstract=%v plain=%v\nη=%s h=%s %s\n%s",
					trial, rep.Holds, plain, eta, h, core.FairnessKindName(kind), sys.FormatString())
			}
			conclusive++
		}
	}
	if conclusive < 80 {
		t.Fatalf("only %d conclusive trials", conclusive)
	}
}

// TestLawFairAbstractMonotoneFairness: strongly fair runs are a subset
// of weakly fair runs, so a verdict that holds under weak fairness must
// hold under strong fairness.
func TestLawFairAbstractMonotoneFairness(t *testing.T) {
	rng := newRng(*seedFlag + 13)
	src := gen.Letters(3)
	conclusive, weakHolds := 0, 0
	for trial := 0; trial < 400 && conclusive < 80; trial++ {
		sys := gen.System(rng, src, 2+rng.Intn(4), 0.25+0.4*rng.Float64())
		var h *hom.Hom
		if rng.Intn(2) == 0 {
			h = gen.IdentityHom(rng, src, 0.4)
		} else {
			h = gen.Hom(rng, src, 0.4)
		}
		eta := gen.Formula(rng, h.Dest().Names(), 1+rng.Intn(2))
		weak, err := core.CheckFairAbstract(context.Background(), core.NewSystemCells(sys), h, fairness.Weak, core.FromFormula(eta, nil))
		if err != nil {
			continue
		}
		strong, err := core.CheckFairAbstract(context.Background(), core.NewSystemCells(sys), h, fairness.Strong, core.FromFormula(eta, nil))
		if err != nil {
			t.Fatal(err)
		}
		if weak.Holds && !strong.Holds {
			t.Fatalf("trial %d: monotonicity violated: holds under weak but not strong fairness\nη=%s h=%s\n%s",
				trial, eta, h, sys.FormatString())
		}
		conclusive++
		if weak.Holds {
			weakHolds++
		}
	}
	if conclusive < 80 {
		t.Fatalf("only %d conclusive trials", conclusive)
	}
	if weakHolds == 0 {
		t.Error("no weak-Holds cases sampled; the law was tested vacuously")
	}
}

// functionalSystem generates a system with exactly one outgoing
// transition per state — every infinite run is fair under both notions.
func functionalSystem(rng *rand.Rand, ab *alphabet.Alphabet, n int) *ts.System {
	sys := ts.New(ab)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	syms := ab.Names()
	for i := range names {
		sys.AddEdge(names[i], syms[rng.Intn(len(syms))], names[rng.Intn(n)])
	}
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)
	return sys
}
