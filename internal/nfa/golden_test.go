package nfa_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/genbase"
	"relive/internal/nfa"
)

// goldenUniversalDigest is the SHA-256 of every verdict and witness
// TestGoldenUniversal produces; see that test for what it covers.
const goldenUniversalDigest = "e6dda360ce90b929e9bd8e21a896c099c02f33ff202c7b5309f6eabec6276fe0"

// TestGoldenUniversal pins Universal's output letter for letter: one
// digest over the verdict and the shortest rejected word on random NFAs
// of 2 to 70 states over one to three letters, a third of them with a
// few ε-moves. The sizes span both inclusion routes (the subset route
// below 16 states, the antichain route from 16) and the 64-state edge
// of the simulation-seeding cap, so a change to either route's
// exploration order or pruning changes the digest.
func TestGoldenUniversal(t *testing.T) {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	rng := rand.New(rand.NewSource(2402))
	var universal, long int
	const trials = 69 * 3 * 6
	for trial := 0; trial < trials; trial++ {
		n := 2 + trial%69
		syms := 1 + (trial/69)%3
		ab := genbase.Letters(syms)
		cfg := genbase.Config{
			States:      n,
			Symbols:     syms,
			Density:     []float64{0.6, 0.8, 0.95}[(trial/207)%3],
			AcceptRatio: []float64{0.5, 0.8}[(trial/621)%2],
		}
		a := genbase.NFA(rng, cfg, ab)
		if trial%3 == 0 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				a.AddTransition(nfa.State(rng.Intn(n)), alphabet.Epsilon, nfa.State(rng.Intn(n)))
			}
		}
		ok, w := nfa.Universal(a)
		if ok {
			universal++
			put(1)
			continue
		}
		if a.Accepts(w) {
			t.Fatalf("trial %d: witness %v is accepted", trial, w)
		}
		if len(w) > 2 {
			long++
		}
		put(0)
		put(int64(len(w)))
		for _, s := range w {
			put(int64(s))
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d NFAs: %d universal, %d witnesses longer than two letters", trials, universal, long)
	if got != goldenUniversalDigest {
		t.Fatalf("universality digest = %s, want %s", got, goldenUniversalDigest)
	}
}
