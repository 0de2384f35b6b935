package buchi

import (
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

// TestOpsMatchesPlain checks the instrumented operations return the
// same automata/answers as the plain ones, with and without a recorder.
func TestOpsMatchesPlain(t *testing.T) {
	b := twoStateLoop(t)
	c := twoStateLoop(t)
	for _, ops := range []Ops{{}, {Rec: obs.NewTrace()}} {
		name := "nil"
		if ops.Rec != nil {
			name = "trace"
		}
		inter := ops.Intersect(b, c)
		plain := Intersect(b, c)
		if inter.NumStates() != plain.NumStates() || inter.NumTransitions() != plain.NumTransitions() {
			t.Errorf("%s: Ops.Intersect size %d/%d, plain %d/%d", name,
				inter.NumStates(), inter.NumTransitions(), plain.NumStates(), plain.NumTransitions())
		}
		if got, want := ops.Reduce(b).NumStates(), b.Reduce().NumStates(); got != want {
			t.Errorf("%s: Ops.Reduce states %d, want %d", name, got, want)
		}
		l, ok, err := ops.IntersectLassoCtx(b, c)
		if err != nil || !ok || !b.AcceptsLasso(l) {
			t.Errorf("%s: Ops.IntersectLassoCtx witness invalid (ok=%v, err=%v)", name, ok, err)
		}
		comp, err := ops.Complement(b)
		if err != nil {
			t.Fatalf("%s: Ops.Complement: %v", name, err)
		}
		if comp.AcceptsLasso(l) {
			t.Errorf("%s: complement accepts a word of the original", name)
		}
		pre := ops.PrefixNFA(b)
		if got, want := pre.NumStates(), b.PrefixNFA().NumStates(); got != want {
			t.Errorf("%s: Ops.PrefixNFA states %d, want %d", name, got, want)
		}
		lim, err := ops.LimitOfAllAccepting(pre)
		if err != nil {
			t.Fatalf("%s: Ops.LimitOfAllAccepting: %v", name, err)
		}
		if !lim.AcceptsLasso(l) {
			t.Errorf("%s: limit of prefixes lost the original behavior", name)
		}
	}
}

// TestOpsRecordsSpans checks the recorder actually sees sizes, calls,
// and the cumulative blowup counter.
func TestOpsRecordsSpans(t *testing.T) {
	tr := obs.NewTrace()
	ops := Ops{Rec: tr}
	b := twoStateLoop(t)
	out := ops.Intersect(b, twoStateLoop(t))
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
	counters := tr.Counters()
	if counters["buchi.intersect.calls"] != 1 {
		t.Errorf("intersect.calls = %d, want 1", counters["buchi.intersect.calls"])
	}
	if counters["buchi.states_built"] != int64(out.NumStates()) {
		t.Errorf("states_built = %d, want %d", counters["buchi.states_built"], out.NumStates())
	}
}

// TestOpsNilRecorderAllocationFree: the nil-Ops wrappers must not add
// allocations beyond the wrapped operation itself (here the product
// emptiness search over empty automata).
func TestOpsNilRecorderAllocationFree(t *testing.T) {
	ab := alphabet.FromNames("a")
	empty := New(ab)
	ops := Ops{}
	allocs := testing.AllocsPerRun(1000, func() {
		ops.IntersectLassoCtx(empty, empty)
	})
	base := testing.AllocsPerRun(1000, func() {
		IntersectLassoCtx(nil, empty, empty)
	})
	if allocs > base {
		t.Errorf("nil-recorder Ops.IntersectLassoCtx allocates %v, plain %v", allocs, base)
	}
}
