package core

import (
	"context"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/fairness"
	"relive/internal/hom"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/ts"
)

// fairAbstractFixture: s0 cycles a/b; a is kept (as x), b is hidden.
// Every fair run takes both a and b infinitely often, so □◇x holds
// through h for both fairness notions; an unfair run (b^ω) has an
// empty h-image and is excluded anyway.
func fairAbstractFixture(t *testing.T) (*ts.System, *hom.Hom) {
	t.Helper()
	ab := alphabet.FromNames("a", "b")
	sys := ts.New(ab)
	sys.AddEdge("s0", "a", "s0")
	sys.AddEdge("s0", "b", "s0")
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)
	h, err := hom.Parse(ab, "a=>x, b=>")
	if err != nil {
		t.Fatal(err)
	}
	return sys, h
}

func TestCheckFairAbstractHolds(t *testing.T) {
	sys, h := fairAbstractFixture(t)
	for _, kind := range []fairness.Kind{fairness.Strong, fairness.Weak} {
		report, err := CheckFairAbstract(context.Background(), NewSystemCells(sys), h, kind, FromFormula(ltl.MustParse("G F x"), nil))
		if err != nil {
			t.Fatal(err)
		}
		if !report.Holds || report.Vacuous {
			t.Fatalf("%s: want Holds (non-vacuous), got %+v", FairnessKindName(kind), report)
		}
	}
}

func TestCheckFairAbstractFails(t *testing.T) {
	// Two separate self-loops from the initial state: s0 -a-> p -a-> p
	// and s0 -b-> q -b-> q. The b-branch is a fair run (p's edges are
	// never enabled there) whose image y^ω violates □◇x.
	ab := alphabet.FromNames("a", "b")
	sys := ts.New(ab)
	sys.AddEdge("s0", "a", "p")
	sys.AddEdge("p", "a", "p")
	sys.AddEdge("s0", "b", "q")
	sys.AddEdge("q", "b", "q")
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)
	h, err := hom.Parse(ab, "a=>x, b=>y")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []fairness.Kind{fairness.Strong, fairness.Weak} {
		report, err := CheckFairAbstract(context.Background(), NewSystemCells(sys), h, kind, FromFormula(ltl.MustParse("G F x"), nil))
		if err != nil {
			t.Fatal(err)
		}
		if report.Holds {
			t.Fatalf("%s: want Fails (the b-branch is fair and maps to y^ω)", FairnessKindName(kind))
		}
		run := report.Witness()
		if run == nil {
			t.Fatal("failing report without witness")
		}
		if err := run.Validate(sys); err != nil {
			t.Fatalf("witness invalid on the original system: %v", err)
		}
		if kind == fairness.Strong && !oracle.IsFair(sys, oracle.EdgeLasso(*run), oracle.StronglyFair) {
			t.Fatal("witness not strongly fair")
		}
		if kind == fairness.Weak && !oracle.IsFair(sys, oracle.EdgeLasso(*run), oracle.WeaklyFair) {
			t.Fatal("witness not weakly fair")
		}
		if len(report.AbstractLoop) == 0 {
			t.Fatal("failing report without abstract image")
		}
	}
}

// TestCheckFairAbstractVacuous: no infinite behavior at all.
func TestCheckFairAbstractVacuous(t *testing.T) {
	ab := alphabet.FromNames("a")
	sys := ts.New(ab)
	sys.AddEdge("s0", "a", "s1") // s1 is a dead end
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)
	h, err := hom.Parse(ab, "a=>x")
	if err != nil {
		t.Fatal(err)
	}
	report, err := CheckFairAbstract(context.Background(), NewSystemCells(sys), h, fairness.Strong, FromFormula(ltl.MustParse("G F x"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if !report.Holds || !report.Vacuous {
		t.Fatalf("want vacuous Holds, got %+v", report)
	}
}

// TestCheckFairAbstractValidation: bad kind, foreign hom, non-Σ'-normal
// property are rejected.
func TestCheckFairAbstractValidation(t *testing.T) {
	sys, h := fairAbstractFixture(t)
	eta := FromFormula(ltl.MustParse("G F x"), nil)
	if _, err := CheckFairAbstract(context.Background(), NewSystemCells(sys), h, fairness.Kind(99), eta); err == nil {
		t.Error("unknown fairness kind accepted")
	}
	other := hom.Identity(alphabet.FromNames("a", "b"), "a", "b")
	if _, err := CheckFairAbstract(context.Background(), NewSystemCells(sys), other, fairness.Strong, eta); err == nil {
		t.Error("hom over a foreign alphabet instance accepted")
	}
	// "a" is a concrete letter, not an abstract one.
	if _, err := CheckFairAbstract(context.Background(), NewSystemCells(sys), h, fairness.Strong, FromFormula(ltl.MustParse("G F a"), nil)); err == nil {
		t.Error("property over concrete letters accepted")
	}
}

// TestCheckFairAbstractTrimAgreement is the regression for trimming
// happening before fairness evaluation in both paths: on a system with
// a dead-end branch and an unreachable fair component, the fair-abstract
// check under the identity homomorphism must agree with the direct
// fairness.ExistsFairRun answer (satellite: unreachable fair states).
func TestCheckFairAbstractTrimAgreement(t *testing.T) {
	ab := alphabet.FromNames("a", "b", "c")
	sys := ts.New(ab)
	sys.AddEdge("s0", "a", "s0")
	sys.AddEdge("s0", "c", "dead") // trimmed: no obligation
	sys.AddEdge("u0", "b", "u0")   // unreachable fair b-cycle
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)
	h := hom.Identity(ab, "a", "b", "c")

	for _, tc := range []struct {
		eta  string
		want bool // expected Holds
	}{
		{"G F a", true},  // a^ω is the only fair run
		{"G F b", false}, // …and it violates GFb (u0's cycle must not save it)
		{"F c", false},   // c never occurs on an infinite run
	} {
		for _, kind := range []fairness.Kind{fairness.Strong, fairness.Weak} {
			eta := FromFormula(ltl.MustParse(tc.eta), ltl.Canonical(h.Dest()))
			report, err := CheckFairAbstract(context.Background(), NewSystemCells(sys), h, kind, eta)
			if err != nil {
				t.Fatal(err)
			}
			if report.Holds != tc.want {
				t.Errorf("%s %s: Holds=%v, want %v", tc.eta, FairnessKindName(kind), report.Holds, tc.want)
			}
			// Direct path must agree: both trim before evaluating fairness.
			direct, run, err := AllFairRunsSatisfy(context.Background(), sys, eta, kind)
			if err != nil {
				t.Fatal(err)
			}
			if direct != report.Holds {
				t.Errorf("%s %s: AllFairRunsSatisfy=%v disagrees with CheckFairAbstract=%v",
					tc.eta, FairnessKindName(kind), direct, report.Holds)
			}
			if run != nil {
				if err := run.Validate(sys); err != nil {
					t.Errorf("%s %s: direct witness invalid: %v", tc.eta, FairnessKindName(kind), err)
				}
			}
		}
	}
}

// TestCheckFairAbstractCancellation: a pre-cancelled context aborts
// with a context error, never a verdict.
func TestCheckFairAbstractCancellation(t *testing.T) {
	sys, h := fairAbstractFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CheckFairAbstract(ctx, NewSystemCells(sys), h, fairness.Strong,
		FromFormula(ltl.MustParse("G F x"), nil))
	if err == nil {
		t.Fatal("cancelled context produced a verdict")
	}
}
