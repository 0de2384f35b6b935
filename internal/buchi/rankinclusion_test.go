package buchi

import (
	"math/rand"
	"testing"

	"relive/internal/genbase"
	"relive/internal/word"
)

// Differential tests for the lazy rank-based inclusion kernel: on
// randomized Büchi pairs the lazy route must agree with the eager
// Complement-then-IntersectLasso reference on every verdict, and every
// counterexample lasso must be a genuine member of L_ω(a) \ L_ω(c).

func TestIncludedRankMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ab := genbase.Letters(2)
	for trial := 0; trial < 100; trial++ {
		a := randomBuchi(rng, ab, 1+rng.Intn(3))
		c := randomBuchi(rng, ab, 1+rng.Intn(3))
		okE, lE, errE := Included(a, c)
		okL, lL, errL := IncludedRankCtx(nil, a, c)
		if (errE == nil) != (errL == nil) {
			t.Fatalf("trial %d: error divergence: eager %v, lazy %v", trial, errE, errL)
		}
		if errE != nil {
			continue
		}
		if okE != okL {
			t.Fatalf("trial %d: verdict divergence: eager %v, lazy %v\na=%v\nc=%v", trial, okE, okL, a, c)
		}
		if okE {
			continue
		}
		if !a.AcceptsLasso(lL) || c.AcceptsLasso(lL) {
			t.Fatalf("trial %d: lazy witness %v not in L(a)\\L(c)\na=%v\nc=%v", trial, lL.String(ab), a, c)
		}
		if !a.AcceptsLasso(lE) || c.AcceptsLasso(lE) {
			t.Fatalf("trial %d: eager witness %v not in L(a)\\L(c)", trial, lE.String(ab))
		}
		// With an all-accepting left operand both routes run the plain
		// product over structurally identical complements, so not just
		// membership but the witness itself must match (the shape the
		// relative-liveness pipeline's IsLimitClosed check relies on).
		if a.allAccepting() && !lE.Equal(lL) {
			t.Fatalf("trial %d: plain-mode witness divergence: eager %v, lazy %v",
				trial, lE.String(ab), lL.String(ab))
		}
	}
}

func TestIncludedRankAllAcceptingLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ab := genbase.Letters(2)
	for trial := 0; trial < 60; trial++ {
		a := randomBuchi(rng, ab, 1+rng.Intn(3))
		for i := 0; i < a.NumStates(); i++ {
			a.SetAccepting(State(i), true)
		}
		c := randomBuchi(rng, ab, 1+rng.Intn(3))
		okE, lE, errE := Included(a, c)
		okL, lL, errL := IncludedRankCtx(nil, a, c)
		if (errE == nil) != (errL == nil) || errE != nil {
			continue
		}
		if okE != okL {
			t.Fatalf("trial %d: verdict divergence: eager %v, lazy %v", trial, okE, okL)
		}
		if !okE && !lE.Equal(lL) {
			t.Fatalf("trial %d: witness divergence: eager %v, lazy %v", trial, lE.String(ab), lL.String(ab))
		}
	}
}

func TestUniversalKernelAgainstComplementEmptiness(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ab := genbase.Letters(2)
	for trial := 0; trial < 100; trial++ {
		c := randomBuchi(rng, ab, 1+rng.Intn(3))
		comp, err := c.Complement()
		if err != nil {
			continue
		}
		_, nonEmpty := comp.AcceptingLasso()
		wantUniversal := !nonEmpty
		routes := []struct {
			name string
			run  func(a, c *Buchi) (bool, word.Lasso, error)
		}{
			{"eager", Included},
			{"lazy", func(a, c *Buchi) (bool, word.Lasso, error) { return IncludedRankCtx(nil, a, c) }},
		}
		for _, r := range routes {
			got, l, err := r.run(UniversalAutomaton(ab), c)
			if err != nil {
				t.Fatalf("trial %d: route %s: %v", trial, r.name, err)
			}
			if got != wantUniversal {
				t.Fatalf("trial %d: route %s: universal=%v, complement emptiness says %v\nc=%v",
					trial, r.name, got, wantUniversal, c)
			}
			if !got && c.AcceptsLasso(l) {
				t.Fatalf("trial %d: route %s: rejected-lasso witness %v is accepted", trial, r.name, l.String(ab))
			}
		}
	}
}

// TestBuchiResolveKernelThreshold pins the size dispatch: the lazy rank
// route from autoRankMin = 8 right-hand states, the eager route below.
func TestBuchiResolveKernelThreshold(t *testing.T) {
	ab := genbase.Letters(2)
	for _, tc := range []struct {
		states int
		want   string
	}{{1, "subset"}, {7, "subset"}, {8, "antichain"}, {32, "antichain"}} {
		c := New(ab)
		for i := 0; i < tc.states; i++ {
			c.AddState(i%3 == 0)
		}
		if got := ResolveKernel(c); got != tc.want {
			t.Fatalf("%d-state rhs routes to %s, want %s", tc.states, got, tc.want)
		}
	}
}
