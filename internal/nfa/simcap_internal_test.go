package nfa

import (
	"testing"

	"relive/internal/alphabet"
)

// chainNFA builds a small deterministic chain over {a} accepting a^n,
// big enough to have a non-trivial simulation preorder.
func chainNFA(n int) *NFA {
	ab := alphabet.New()
	sym := ab.Symbol("a")
	a := New(ab)
	for i := 0; i <= n; i++ {
		a.AddState(i == n)
	}
	for i := 0; i < n; i++ {
		a.AddTransition(State(i), sym, State(i+1))
	}
	a.SetInitial(0)
	return a
}

// TestSimulationCapGatesSeeding pins the cap semantics at the seeding
// boundary: cap 0 disables the preorder outright, a cap below the pair
// space skips it, a cap at or above the pair space computes it.
func TestSimulationCapGatesSeeding(t *testing.T) {
	ae := chainNFA(3).epsFree()
	be := chainNFA(4).epsFree()
	na, nb := ae.NumStates(), be.NumStates()
	pairs := nb*nb + na*nb

	if sb, cr := inclusionPreorder(ae, be, 0); sb != nil || cr != nil {
		t.Fatal("cap 0 still computed the inclusion preorder")
	}
	if sb, cr := inclusionPreorder(ae, be, pairs-1); sb != nil || cr != nil {
		t.Fatalf("cap %d (below the %d-pair space) still computed the preorder", pairs-1, pairs)
	}
	if sb, cr := inclusionPreorder(ae, be, pairs); sb == nil || cr == nil {
		t.Fatalf("cap %d (exactly the pair space) skipped the preorder", pairs)
	}

	upairs := nb * nb
	if sb := simBelowOf(be, 0); sb != nil {
		t.Fatal("cap 0 still computed the universality preorder")
	}
	if sb := simBelowOf(be, upairs-1); sb != nil {
		t.Fatalf("cap %d (below the %d-pair space) still computed the preorder", upairs-1, upairs)
	}
	if sb := simBelowOf(be, upairs); sb == nil {
		t.Fatalf("cap %d (exactly the pair space) skipped the preorder", upairs)
	}
}
