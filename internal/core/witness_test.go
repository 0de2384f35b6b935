package core

import (
	"context"
	"math/rand"
	"testing"

	"relive/internal/buchi"
	"relive/internal/gen"
	"relive/internal/word"
)

// TestQuickBadPrefixIsShortest: the BadPrefix returned by the
// relative-liveness checker is a shortest unrecoverable prefix,
// verified against breadth-first enumeration of all behavior prefixes.
func TestQuickBadPrefixIsShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	ab := gen.Letters(2)
	atoms := ab.Names()
	checked := 0
	for trial := 0; trial < 120 && checked < 20; trial++ {
		sys := randomSystem(rng, ab, 1+rng.Intn(4))
		p := FromFormula(randomPropertyFormula(rng, atoms), nil)
		rl, err := RelativeLiveness(context.Background(), NewPipelineCells(sys, p))
		if err != nil {
			t.Fatal(err)
		}
		if rl.Holds {
			continue
		}
		checked++
		trimmed, err := sys.Trim()
		if err != nil {
			continue
		}
		behaviors, err := trimmed.Behaviors()
		if err != nil {
			t.Fatal(err)
		}
		pa, err := p.Automaton(nil, ab)
		if err != nil {
			t.Fatal(err)
		}
		recoverable := func(w word.Word) bool {
			contBeh := restartOnWord(behaviors, w)
			contPA := restartOnWord(pa, w)
			if contBeh == nil {
				return true // not a behavior prefix at all: irrelevant
			}
			if contPA == nil {
				return false
			}
			prod, _ := buchi.IntersectCtx(nil, contBeh, contPA)
			return !prod.IsEmpty()
		}
		// The returned prefix must be unrecoverable...
		if recoverable(rl.BadPrefix) {
			t.Fatalf("trial %d: BadPrefix %s is recoverable", trial, rl.BadPrefix.String(ab))
		}
		// ...and no strictly shorter behavior prefix may be unrecoverable.
		for _, w := range gen.Words(ab, len(rl.BadPrefix)-1) {
			if len(w) >= len(rl.BadPrefix) {
				continue // gen.Words(ab, -1) still yields ε
			}
			if trimmed.AcceptsWord(w) && !recoverable(w) {
				t.Fatalf("trial %d: shorter unrecoverable prefix %s exists (returned %s)",
					trial, w.String(ab), rl.BadPrefix.String(ab))
			}
		}
	}
	if checked == 0 {
		t.Skip("no failing samples")
	}
}
