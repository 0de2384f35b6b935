package fairness

import (
	"context"
	"errors"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/ts"
)

// TestExistsFairRunTrimsBeforeFairness pins the trim-before-fairness
// semantics: transitions into dead-end states and transitions of
// unreachable states impose no fairness obligations. Without the trim,
// the s0→dead edge forms an unsatisfiable Streett pair (it can never be
// taken by an infinite run) and the checker would wrongly report that
// no strongly fair run exists at all.
func TestExistsFairRunTrimsBeforeFairness(t *testing.T) {
	ab := alphabet.FromNames("a", "c")
	sys := ts.New(ab)
	sys.AddEdge("s0", "a", "s0")
	sys.AddEdge("s0", "c", "dead") // dead end: never takeable by an infinite run
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)

	prop := buchi.UniversalAutomaton(ab)
	for _, kind := range []Kind{Strong, Weak} {
		run, ok, err := ExistsFairRunCtx(nil, sys, prop, kind)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("kind %d: no fair run found although a^ω is fair after trimming", kind)
		}
		if err := run.Validate(sys); err != nil {
			t.Fatalf("kind %d: witness invalid on the original system: %v", kind, err)
		}
		if kind == Strong && !oracle.IsFair(sys, oracle.EdgeLasso(run), oracle.StronglyFair) {
			t.Fatal("witness not strongly fair under the trimmed-obligation predicate")
		}
		if kind == Weak && !oracle.IsFair(sys, oracle.EdgeLasso(run), oracle.WeaklyFair) {
			t.Fatal("witness not weakly fair under the trimmed-obligation predicate")
		}
	}
}

// TestExistsFairRunIgnoresUnreachableStates: an unreachable strongly
// connected component (with its own fair runs) must influence neither
// the verdict nor the witness.
func TestExistsFairRunIgnoresUnreachableStates(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	sys := ts.New(ab)
	sys.AddEdge("s0", "a", "s0")
	sys.AddEdge("u0", "b", "u0") // unreachable from s0
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)

	lab := ltl.Canonical(ab)
	gfb, _ := ltl.TranslateBuchi(nil, ltl.MustParse("G F b"), lab)
	for _, kind := range []Kind{Strong, Weak} {
		if _, ok, err := ExistsFairRunCtx(nil, sys, gfb, kind); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatalf("kind %d: found a GFb run although b only occurs in an unreachable component", kind)
		}
	}
	gfa, _ := ltl.TranslateBuchi(nil, ltl.MustParse("G F a"), lab)
	run, ok, err := ExistsFairRunCtx(nil, sys, gfa, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a^ω lost to the unreachable component")
	}
	if err := run.Validate(sys); err != nil {
		t.Fatalf("witness invalid: %v", err)
	}
	for _, e := range append(append([]ts.Edge{}, run.Prefix...), run.Loop...) {
		if sys.StateName(e.From) == "u0" || sys.StateName(e.To) == "u0" {
			t.Fatalf("witness visits the unreachable state: %+v", e)
		}
	}
}

// TestExistsFairRunCtxCancelled: a pre-cancelled context aborts the
// search with a context error, never a verdict.
func TestExistsFairRunCtxCancelled(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	sys := ts.New(ab)
	sys.AddEdge("q", "a", "q")
	sys.AddEdge("q", "b", "q")
	init, _ := sys.LookupState("q")
	sys.SetInitial(init)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, ok, err := ExistsFairRunCtx(ctx, sys, buchi.UniversalAutomaton(ab), Strong)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got ok=%v err=%v", ok, err)
	}
}
