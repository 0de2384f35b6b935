package buchi

import (
	"context"
	"errors"
	"testing"

	"relive/internal/alphabet"
)

// ctxCycle builds a single-letter cycle automaton of the given length
// with only state 0 accepting (allAccepting=false forces the two-track
// product) or with every state accepting (forces the plain product).
// Coprime cycle lengths make the product explore length*length states —
// far past the 1<<10-iteration context poll interval.
func ctxCycle(ab *alphabet.Alphabet, length int, allAcc bool) *Buchi {
	b := New(ab)
	for i := 0; i < length; i++ {
		b.AddState(allAcc || i == 0)
	}
	a := ab.Symbol("a")
	for i := 0; i < length; i++ {
		b.AddTransition(State(i), a, State((i+1)%length))
	}
	b.SetInitial(0)
	return b
}

func cancelled(tb testing.TB) context.Context {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestIntersectCtxCancelledTwoTrack(t *testing.T) {
	ab := alphabet.FromNames("a")
	a, c := ctxCycle(ab, 150, false), ctxCycle(ab, 149, false)
	if _, err := IntersectCtx(cancelled(t), a, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	want, _ := intersect(nil, a, c)
	got, err := IntersectCtx(nil, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStates() != want.NumStates() {
		t.Fatalf("nil-ctx product has %d states, want %d", got.NumStates(), want.NumStates())
	}
}

func TestIntersectCtxCancelledPlainProduct(t *testing.T) {
	ab := alphabet.FromNames("a")
	a, c := ctxCycle(ab, 150, true), ctxCycle(ab, 149, true)
	if _, err := IntersectCtx(cancelled(t), a, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := IntersectCtx(context.Background(), a, c); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
}

func TestIntersectLassoCtxCancelled(t *testing.T) {
	ab := alphabet.FromNames("a")
	a, c := ctxCycle(ab, 150, false), ctxCycle(ab, 149, false)
	if _, _, err := IntersectLassoCtx(cancelled(t), a, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	l, ok, err := IntersectLassoCtx(nil, a, c)
	if err != nil || !ok {
		t.Fatalf("nil-ctx lasso = (ok=%v, err=%v), want an accepting lasso", ok, err)
	}
	if !a.AcceptsLasso(l) || !c.AcceptsLasso(l) {
		t.Fatal("returned lasso rejected by an operand")
	}
}
