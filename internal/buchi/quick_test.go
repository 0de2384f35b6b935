package buchi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relive/internal/genbase"
	"relive/internal/word"
)

// seedBuchi deterministically derives a small Büchi automaton from a
// seed, letting testing/quick explore automata through integers.
func seedBuchi(seed int64) *Buchi {
	rng := rand.New(rand.NewSource(seed))
	return randomBuchi(rng, genbase.Letters(2), 1+rng.Intn(4))
}

func seedLasso(seed int64) word.Lasso {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return genbase.Lasso(rng, genbase.Letters(2), 3, 3)
}

// TestQuickIntersectCommutes: membership in A ∩ B and B ∩ A agree.
func TestQuickIntersectCommutes(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		a, b := seedBuchi(s1), seedBuchi(s2)
		l := seedLasso(s3)
		return product(a, b).AcceptsLasso(l) == product(b, a).AcceptsLasso(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectIsConjunction: x ∈ A ∩ B ⟺ x ∈ A and x ∈ B.
func TestQuickIntersectIsConjunction(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		a, b := seedBuchi(s1), seedBuchi(s2)
		l := seedLasso(s3)
		return product(a, b).AcceptsLasso(l) == (a.AcceptsLasso(l) && b.AcceptsLasso(l))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickReducePreservesMembership.
func TestQuickReducePreservesMembership(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := seedBuchi(s1)
		l := seedLasso(s2)
		return a.AcceptsLasso(l) == a.Reduce().AcceptsLasso(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickEmptinessConsistentWithWitness: nonempty automata accept
// their own witness; empty ones accept no sampled lasso.
func TestQuickEmptinessConsistentWithWitness(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := seedBuchi(s1)
		if l, ok := a.AcceptingLasso(); ok {
			return a.AcceptsLasso(l)
		}
		return !a.AcceptsLasso(seedLasso(s2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
