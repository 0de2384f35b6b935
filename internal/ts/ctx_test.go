package ts

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"relive/internal/alphabet"
)

// bigCycle builds an n-state single-cycle system; trimming it walks
// every state in both the reachability pass and the dead-end pass, far
// past the 1<<10-iteration context poll interval.
func bigCycle(tb testing.TB, n int) *System {
	tb.Helper()
	sys := New(alphabet.FromNames("a"))
	for i := 0; i < n; i++ {
		sys.AddState(fmt.Sprintf("s%d", i))
	}
	a := sys.Alphabet().Symbol("a")
	for i := 0; i < n; i++ {
		sys.AddTransition(State(i), a, State((i+1)%n))
	}
	sys.SetInitial(0)
	return sys
}

func TestTrimCtxCancelled(t *testing.T) {
	sys := bigCycle(t, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.TrimCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "ts: trim") {
		t.Fatalf("err %q lost the trim wrap", err)
	}
	// The context error must stay distinguishable from the genuine
	// "no infinite behavior" verdict error.
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("Canceled error also matches DeadlineExceeded")
	}
}

func TestTrimCtxNilAndLiveMatchTrim(t *testing.T) {
	sys := bigCycle(t, 5000)
	want, err := sys.Trim()
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []context.Context{nil, context.Background()} {
		got, err := sys.TrimCtx(ctx)
		if err != nil {
			t.Fatalf("ctx=%v: %v", ctx, err)
		}
		if got.NumStates() != want.NumStates() {
			t.Fatalf("ctx=%v: trimmed to %d states, want %d", ctx, got.NumStates(), want.NumStates())
		}
	}
}
