package buchi

import (
	"context"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/obs"
)

// twoStateLoop builds a two-state automaton accepting (ab)^ω with the
// accepting state on the loop.
func twoStateLoop(t *testing.T) *Buchi {
	t.Helper()
	ab := alphabet.FromNames("a", "b")
	b := New(ab)
	s0 := b.AddState(true)
	s1 := b.AddState(false)
	sa, _ := ab.Lookup("a")
	sb, _ := ab.Lookup("b")
	b.AddTransition(s0, sa, s1)
	b.AddTransition(s1, sb, s0)
	b.SetInitial(s0)
	return b
}

func TestNumTransitions(t *testing.T) {
	b := twoStateLoop(t)
	if got := b.NumTransitions(); got != 2 {
		t.Errorf("NumTransitions = %d, want 2", got)
	}
	if got := b.NumAccepting(); got != 1 {
		t.Errorf("NumAccepting = %d, want 1", got)
	}
	sa, _ := b.Alphabet().Lookup("a")
	b.AddTransition(State(0), sa, State(0))
	if got := b.NumTransitions(); got != 3 {
		t.Errorf("NumTransitions after add = %d, want 3", got)
	}
	// Duplicate insertions must not double-count.
	b.AddTransition(State(0), sa, State(0))
	if got := b.NumTransitions(); got != 3 {
		t.Errorf("NumTransitions after duplicate add = %d, want 3", got)
	}
	if got := New(b.Alphabet()).NumTransitions(); got != 0 {
		t.Errorf("empty automaton NumTransitions = %d, want 0", got)
	}
}

// TestIntersectCtxMatchesPlain checks the context forms return the
// same automata and answers as the plain ones, with and without a
// recorder on the context.
func TestIntersectCtxMatchesPlain(t *testing.T) {
	b := twoStateLoop(t)
	c := twoStateLoop(t)
	for name, ctx := range map[string]context.Context{
		"nil":        nil,
		"background": context.Background(),
		"trace":      obs.ContextWithRecorder(context.Background(), obs.NewTrace()),
	} {
		inter, err := IntersectCtx(ctx, b, c)
		if err != nil {
			t.Fatalf("%s: IntersectCtx: %v", name, err)
		}
		plain, _ := intersect(nil, b, c)
		if inter.NumStates() != plain.NumStates() || inter.NumTransitions() != plain.NumTransitions() {
			t.Errorf("%s: IntersectCtx size %d/%d, plain %d/%d", name,
				inter.NumStates(), inter.NumTransitions(), plain.NumStates(), plain.NumTransitions())
		}
		l, ok, err := IntersectLassoCtx(ctx, b, c)
		if err != nil || !ok || !b.AcceptsLasso(l) {
			t.Errorf("%s: IntersectLassoCtx witness invalid (ok=%v, err=%v)", name, ok, err)
		}
		if pl, _, pok, _ := intersectLasso(nil, b, c, nil, nil); pok != ok || pl.String(b.Alphabet()) != l.String(b.Alphabet()) {
			t.Errorf("%s: IntersectLassoCtx = %v, plain %v", name, l, pl)
		}
	}
}

// TestIntersectCtxRecordsSpans checks the recorder on the context sees
// sizes, calls, and the cumulative blowup counter.
func TestIntersectCtxRecordsSpans(t *testing.T) {
	tr := obs.NewTrace()
	ctx := obs.ContextWithRecorder(context.Background(), tr)
	b := twoStateLoop(t)
	out, err := IntersectCtx(ctx, b, twoStateLoop(t))
	if err != nil {
		t.Fatal(err)
	}
	sp, found := tr.Find("buchi.Intersect")
	if !found {
		t.Fatal("no buchi.Intersect span recorded")
	}
	if sp.Ints["left_states"] != 2 || sp.Ints["out_states"] != int64(out.NumStates()) {
		t.Errorf("span sizes wrong: %v", sp.Ints)
	}
	if sp.DurationNS < 0 {
		t.Error("span not ended")
	}
	if _, _, err := IntersectLassoCtx(ctx, b, out); err != nil {
		t.Fatal(err)
	}
	esp, found := tr.Find("buchi.IntersectEmpty")
	if !found {
		t.Fatal("no buchi.IntersectEmpty span recorded")
	}
	if esp.Ints["empty"] != 0 || esp.Ints["explored_states"] <= 0 {
		t.Errorf("emptiness span attributes wrong: %v", esp.Ints)
	}
	counters := tr.Counters()
	if counters["buchi.intersect.calls"] != 1 {
		t.Errorf("intersect.calls = %d, want 1", counters["buchi.intersect.calls"])
	}
	if counters["buchi.emptiness.calls"] != 1 {
		t.Errorf("emptiness.calls = %d, want 1", counters["buchi.emptiness.calls"])
	}
	if counters["buchi.states_built"] != int64(out.NumStates()) {
		t.Errorf("states_built = %d, want %d", counters["buchi.states_built"], out.NumStates())
	}
}

// TestIntersectLassoCtxNoRecorderAllocationFree: without a recorder on
// the context, IntersectLassoCtx must not allocate beyond the
// uninstrumented search itself (here over empty automata).
func TestIntersectLassoCtxNoRecorderAllocationFree(t *testing.T) {
	ab := alphabet.FromNames("a")
	empty := New(ab)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		IntersectLassoCtx(ctx, empty, empty)
	})
	base := testing.AllocsPerRun(1000, func() {
		intersectLasso(nil, empty, empty, nil, nil)
	})
	if allocs > base {
		t.Errorf("recorder-free IntersectLassoCtx allocates %v, uninstrumented %v", allocs, base)
	}
}
