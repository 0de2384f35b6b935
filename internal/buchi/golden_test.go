package buchi

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"relive/internal/genbase"
	"relive/internal/obs"
	"relive/internal/word"
)

// goldenProductSearchDigest is the SHA-256 of every verdict, lasso,
// explored-state count and error TestGoldenProductSearch produces; see
// that test for what it covers.
const goldenProductSearchDigest = "0609df41b0157ee13912fee637b881a3ebe22ab99d4ce671ac79213059619c66"

// TestGoldenProductSearch pins the lazy product searches' output bit
// for bit: one digest over IntersectLassoCtx (verdict, lasso and the
// explored_states tag of its span), IntersectEmptyFrom from every pair
// of operand states, and IncludedRankCtx (verdict, lasso, error text),
// on random Büchi pairs over one to three letters: left operands of one
// to five states, right operands of one to three, which keeps the lazy
// complement small. Every fourth pair has an all-accepting left operand,
// every fourth an all-accepting right operand and every fourth both,
// since those operands switch the product to its plain (trackless)
// mode. A change to the exploration
// order, the interning or the acceptance tracking changes the digest.
func TestGoldenProductSearch(t *testing.T) {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	putWord := func(w word.Word) {
		put(int64(len(w)))
		for _, s := range w {
			put(int64(s))
		}
	}
	putLasso := func(l word.Lasso) {
		putWord(l.Prefix)
		putWord(l.Loop)
	}
	putErr := func(err error) {
		s := ""
		if err != nil {
			s = err.Error()
		}
		put(int64(len(s)))
		h.Write([]byte(s))
	}
	allAccepting := func(b *Buchi) {
		for i := 0; i < b.NumStates(); i++ {
			b.SetAccepting(State(i), true)
		}
	}
	const goldenPairs = 1200
	rng := rand.New(rand.NewSource(2401))
	var nonEmpty, excluded int
	for trial := 0; trial < goldenPairs; trial++ {
		ab := genbase.Letters(1 + trial%3)
		a := randomBuchi(rng, ab, 1+rng.Intn(5))
		c := randomBuchi(rng, ab, 1+rng.Intn(3))
		switch trial % 4 {
		case 1:
			allAccepting(a)
		case 2:
			allAccepting(c)
		case 3:
			allAccepting(a)
			allAccepting(c)
		}

		tr := obs.NewTrace()
		l, ok, err := IntersectLassoCtx(obs.ContextWithRecorder(context.Background(), tr), a, c)
		if err != nil {
			t.Fatalf("trial %d: IntersectLassoCtx: %v", trial, err)
		}
		sp, found := tr.Find("buchi.IntersectEmpty")
		if !found {
			t.Fatalf("trial %d: no buchi.IntersectEmpty span", trial)
		}
		if ok {
			nonEmpty++
			if !a.AcceptsLasso(l) || !c.AcceptsLasso(l) {
				t.Fatalf("trial %d: lasso %s not in both operands", trial, l.String(ab))
			}
		}
		putBool(ok)
		putLasso(l)
		put(sp.Ints["explored_states"])

		for x := 0; x < a.NumStates(); x++ {
			for y := 0; y < c.NumStates(); y++ {
				putBool(IntersectEmptyFrom(a, c, []State{State(x)}, []State{State(y)}))
			}
		}

		incl, l, err := IncludedRankCtx(nil, a, c)
		if err == nil && !incl {
			excluded++
			if !a.AcceptsLasso(l) || c.AcceptsLasso(l) {
				t.Fatalf("trial %d: rank witness %s not in L(a)\\L(c)", trial, l.String(ab))
			}
		}
		putBool(incl)
		putLasso(l)
		putErr(err)
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d pairs: %d nonempty intersections, %d failed inclusions", goldenPairs, nonEmpty, excluded)
	if got != goldenProductSearchDigest {
		t.Fatalf("product-search digest = %s, want %s", got, goldenProductSearchDigest)
	}
}

// goldenIntersectDigest is the SHA-256 of every automaton
// TestGoldenIntersect builds; see that test for what it covers.
const goldenIntersectDigest = "4373b0d33087d284d98e365d97a5e9d1de0f012c70d2c9c7e40437dd5c84aa46"

// TestGoldenIntersect pins the eager product's output bit for bit: one
// digest over Intersect and IntersectCtx (state count, initial list,
// acceptance flags, and every row in symbol order with its edge order)
// on random Büchi pairs over one to three letters, left operands of one
// to six states and right operands of one to five. Every fourth pair
// has an all-accepting left operand, every fourth an all-accepting
// right operand and every fourth both, since those operands switch the
// product to its plain (trackless) mode. The product builds
// h⁻¹(¬P) for the fair-abstract check and Theorem 5.1's synthesis, so
// its state numbering reaches their witnesses: a change to the
// interning order, the edge order or the acceptance tracking changes
// the digest.
func TestGoldenIntersect(t *testing.T) {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	putAutomaton := func(b *Buchi) {
		put(int64(b.NumStates()))
		put(int64(len(b.Initial())))
		for _, s := range b.Initial() {
			put(int64(s))
		}
		for s := 0; s < b.NumStates(); s++ {
			if b.Accepting(State(s)) {
				put(1)
			} else {
				put(0)
			}
			for _, sym := range b.Alphabet().Symbols() {
				row := b.Succ(State(s), sym)
				put(int64(len(row)))
				for _, t := range row {
					put(int64(t))
				}
			}
		}
	}
	allAccepting := func(b *Buchi) {
		for i := 0; i < b.NumStates(); i++ {
			b.SetAccepting(State(i), true)
		}
	}
	const goldenPairs = 2000
	rng := rand.New(rand.NewSource(2501))
	var states int
	for trial := 0; trial < goldenPairs; trial++ {
		ab := genbase.Letters(1 + trial%3)
		a := randomBuchi(rng, ab, 1+rng.Intn(6))
		c := randomBuchi(rng, ab, 1+rng.Intn(5))
		switch trial % 4 {
		case 1:
			allAccepting(a)
		case 2:
			allAccepting(c)
		case 3:
			allAccepting(a)
			allAccepting(c)
		}
		p := product(a, c)
		putAutomaton(p)
		pc, err := IntersectCtx(context.Background(), a, c)
		if err != nil {
			t.Fatalf("trial %d: IntersectCtx: %v", trial, err)
		}
		putAutomaton(pc)
		states += p.NumStates()
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d pairs: %d product states", goldenPairs, states)
	if got != goldenIntersectDigest {
		t.Fatalf("intersect digest = %s, want %s", got, goldenIntersectDigest)
	}
}
