package fairness

import (
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/buchi"
	"relive/internal/ltl"
	"relive/internal/oracle"
	"relive/internal/ts"
	"relive/internal/word"
)

// abLoop returns the one-state system with behaviors {a,b}^ω.
func abLoop() *ts.System {
	ab := alphabet.FromNames("a", "b")
	s := ts.New(ab)
	s.AddEdge("q", "a", "q")
	s.AddEdge("q", "b", "q")
	init, _ := s.LookupState("q")
	s.SetInitial(init)
	return s
}

// edgeOf returns the unique edge of sys labeled with the action name.
func edgeOf(t *testing.T, sys *ts.System, action string) ts.Edge {
	t.Helper()
	sym, ok := sys.Alphabet().Lookup(action)
	if !ok {
		t.Fatalf("no action %q", action)
	}
	for _, e := range sys.Edges() {
		if e.Sym == sym {
			return e
		}
	}
	t.Fatalf("no edge labeled %q", action)
	return ts.Edge{}
}

func TestRunValidate(t *testing.T) {
	sys := abLoop()
	ea := edgeOf(t, sys, "a")
	eb := edgeOf(t, sys, "b")
	good := Run{Prefix: []ts.Edge{ea}, Loop: []ts.Edge{ea, eb}}
	if err := good.Validate(sys); err != nil {
		t.Errorf("valid run rejected: %v", err)
	}
	if err := (Run{}).Validate(sys); err == nil {
		t.Error("empty loop accepted")
	}
	bad := Run{Loop: []ts.Edge{{From: 5, Sym: ea.Sym, To: 5}}}
	if err := bad.Validate(sys); err == nil {
		t.Error("disconnected run accepted")
	}
}

func TestRunWord(t *testing.T) {
	sys := abLoop()
	ea := edgeOf(t, sys, "a")
	eb := edgeOf(t, sys, "b")
	r := Run{Prefix: []ts.Edge{ea}, Loop: []ts.Edge{eb, ea}}
	got := r.Word()
	want := word.MustLasso(
		word.FromNames(sys.Alphabet(), "a"),
		word.FromNames(sys.Alphabet(), "b", "a"),
	)
	if !got.Equal(want) {
		t.Errorf("Word = %s, want %s", got.String(sys.Alphabet()), want.String(sys.Alphabet()))
	}
}

func TestStrongFairness(t *testing.T) {
	sys := abLoop()
	ea := edgeOf(t, sys, "a")
	eb := edgeOf(t, sys, "b")
	both := Run{Loop: []ts.Edge{ea, eb}}
	if !oracle.IsFair(sys, oracle.EdgeLasso(both), oracle.StronglyFair) {
		t.Error("loop taking both edges is not strongly fair?")
	}
	onlyA := Run{Loop: []ts.Edge{ea}}
	if oracle.IsFair(sys, oracle.EdgeLasso(onlyA), oracle.StronglyFair) {
		t.Error("a^ω is strongly fair although b is always enabled")
	}
	if !oracle.IsFair(sys, oracle.EdgeLasso(onlyA), oracle.WeaklyFair) == false {
		// b is continuously enabled (single-state loop) and never taken.
		t.Error("a^ω should not be weakly fair here")
	}
}

func TestWeakFairnessMultiState(t *testing.T) {
	// s0 -a-> s1 -b-> s0 with an extra edge s0 -c-> s0. The run
	// (a b)^ω never takes c, but c is not continuously enabled (the run
	// keeps leaving s0), so it is weakly fair yet not strongly fair.
	ab := alphabet.FromNames("a", "b", "c")
	sys := ts.New(ab)
	sys.AddEdge("s0", "a", "s1")
	sys.AddEdge("s1", "b", "s0")
	sys.AddEdge("s0", "c", "s0")
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)

	ea := edgeOf(t, sys, "a")
	eb := edgeOf(t, sys, "b")
	r := Run{Loop: []ts.Edge{ea, eb}}
	if !oracle.IsFair(sys, oracle.EdgeLasso(r), oracle.WeaklyFair) {
		t.Error("(ab)^ω not weakly fair")
	}
	if oracle.IsFair(sys, oracle.EdgeLasso(r), oracle.StronglyFair) {
		t.Error("(ab)^ω strongly fair although c is enabled infinitely often and never taken")
	}
}

func TestExistsFairRunBasic(t *testing.T) {
	sys := abLoop()
	lab := ltl.Canonical(sys.Alphabet())
	// Property "infinitely many a": satisfiable by a fair run.
	prop, _ := ltl.TranslateBuchi(nil, ltl.MustParse("G F a"), lab)
	run, ok, err := ExistsFairRunCtx(nil, sys, prop, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no strongly fair run satisfying GFa in {a,b}^ω")
	}
	if err := run.Validate(sys); err != nil {
		t.Fatalf("witness run invalid: %v", err)
	}
	if !oracle.IsFair(sys, oracle.EdgeLasso(run), oracle.StronglyFair) {
		t.Error("witness run is not strongly fair")
	}
	if !prop.AcceptsLasso(run.Word()) {
		t.Error("witness run word not accepted by the property")
	}

	// "Eventually only a": no strongly fair run can avoid b forever.
	prop2, _ := ltl.TranslateBuchi(nil, ltl.MustParse("F G a"), lab)
	_, ok, err = ExistsFairRunCtx(nil, sys, prop2, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("strongly fair run satisfying FGa found in {a,b}^ω")
	}
	// But a weakly fair one cannot exist either: the loop would sit at
	// the single state with b enabled continuously.
	_, ok, err = ExistsFairRunCtx(nil, sys, prop2, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("weakly fair run satisfying FGa found in {a,b}^ω")
	}
}

func TestExistsFairRunWeakVsStrong(t *testing.T) {
	// Two states: s0 -a-> s1, s1 -b-> s0, s0 -c-> s0. A run looping
	// (a b)^ω is weakly fair but not strongly fair (c starved). So
	// "G !c" admits a weakly fair run but no strongly fair one.
	ab := alphabet.FromNames("a", "b", "c")
	sys := ts.New(ab)
	sys.AddEdge("s0", "a", "s1")
	sys.AddEdge("s1", "b", "s0")
	sys.AddEdge("s0", "c", "s0")
	init, _ := sys.LookupState("s0")
	sys.SetInitial(init)
	lab := ltl.Canonical(ab)
	noC, _ := ltl.TranslateBuchi(nil, ltl.MustParse("G !c"), lab)

	run, ok, err := ExistsFairRunCtx(nil, sys, noC, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no weakly fair run avoiding c")
	}
	if err := run.Validate(sys); err != nil {
		t.Fatalf("weak witness invalid: %v", err)
	}
	if !oracle.IsFair(sys, oracle.EdgeLasso(run), oracle.WeaklyFair) {
		t.Error("weak witness is not weakly fair")
	}

	_, ok, err = ExistsFairRunCtx(nil, sys, noC, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("strongly fair run avoiding c found; c should be taken infinitely often")
	}
}

func TestExistsFairRunNoRuns(t *testing.T) {
	ab := alphabet.FromNames("a")
	sys := ts.New(ab)
	sys.AddState("dead")
	st, _ := sys.LookupState("dead")
	sys.SetInitial(st)
	prop := buchi.UniversalAutomaton(ab)
	_, ok, err := ExistsFairRunCtx(nil, sys, prop, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("fair run found in a system without transitions")
	}
	if _, _, err := ExistsFairRunCtx(nil, ts.New(ab), prop, Strong); err == nil {
		t.Error("system without initial state accepted")
	}
	if _, _, err := ExistsFairRunCtx(nil, sys, prop, Kind(99)); err == nil {
		t.Error("unknown fairness kind accepted")
	}
}

// TestQuickFairWitnessesAreFair: on random systems and random properties,
// every witness returned is a valid, fair, property-satisfying run.
func TestQuickFairWitnessesAreFair(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	names := []string{"a", "b", "c"}
	for trial := 0; trial < 60; trial++ {
		ab := alphabet.FromNames(names...)
		sys := ts.New(ab)
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			sys.AddState(string(rune('A' + i)))
		}
		for i := 0; i < n; i++ {
			for _, a := range names {
				if rng.Float64() < 0.5 {
					from, _ := sys.LookupState(string(rune('A' + i)))
					to, _ := sys.LookupState(string(rune('A' + rng.Intn(n))))
					sym, _ := ab.Lookup(a)
					sys.AddTransition(from, sym, to)
				}
			}
		}
		init, _ := sys.LookupState("A")
		sys.SetInitial(init)

		f := ltl.MustParse([]string{"G F a", "F G b", "G (a -> F c)", "F b"}[rng.Intn(4)])
		prop, _ := ltl.TranslateBuchi(nil, f, ltl.Canonical(ab))
		for _, kind := range []Kind{Strong, Weak} {
			run, ok, err := ExistsFairRunCtx(nil, sys, prop, kind)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			if err := run.Validate(sys); err != nil {
				t.Fatalf("trial %d: invalid witness: %v\n%s", trial, err, sys.FormatString())
			}
			if kind == Strong && !oracle.IsFair(sys, oracle.EdgeLasso(run), oracle.StronglyFair) {
				t.Fatalf("trial %d: witness not strongly fair\n%s", trial, sys.FormatString())
			}
			if kind == Weak && !oracle.IsFair(sys, oracle.EdgeLasso(run), oracle.WeaklyFair) {
				t.Fatalf("trial %d: witness not weakly fair\n%s", trial, sys.FormatString())
			}
			if !prop.AcceptsLasso(run.Word()) {
				t.Fatalf("trial %d: witness word does not satisfy %s", trial, f)
			}
		}
	}
}

// TestQuickStrongFairCompleteness: if a strongly fair accepted lasso is
// found by brute-force enumeration of short lassos, the checker must
// also report one.
func TestQuickStrongFairCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	names := []string{"a", "b"}
	for trial := 0; trial < 40; trial++ {
		ab := alphabet.FromNames(names...)
		sys := ts.New(ab)
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			sys.AddState(string(rune('A' + i)))
		}
		for i := 0; i < n; i++ {
			for _, a := range names {
				if rng.Float64() < 0.6 {
					from, _ := sys.LookupState(string(rune('A' + i)))
					to, _ := sys.LookupState(string(rune('A' + rng.Intn(n))))
					sym, _ := ab.Lookup(a)
					sys.AddTransition(from, sym, to)
				}
			}
		}
		init, _ := sys.LookupState("A")
		sys.SetInitial(init)
		f := ltl.MustParse([]string{"G F a", "F G b", "G F b"}[rng.Intn(3)])
		prop, _ := ltl.TranslateBuchi(nil, f, ltl.Canonical(ab))

		_, found, err := ExistsFairRunCtx(nil, sys, prop, Strong)
		if err != nil {
			t.Fatal(err)
		}
		brute := bruteForceFairRun(sys, prop, 4)
		if brute && !found {
			t.Fatalf("trial %d: brute force found a fair accepted run, checker did not\n%s",
				trial, sys.FormatString())
		}
		if found && !brute {
			// The checker may legitimately find longer runs than the
			// brute-force bound; re-verify the witness instead of failing.
			run, _, _ := ExistsFairRunCtx(nil, sys, prop, Strong)
			if err := run.Validate(sys); err != nil || !oracle.IsFair(sys, oracle.EdgeLasso(run), oracle.StronglyFair) || !prop.AcceptsLasso(run.Word()) {
				t.Fatalf("trial %d: checker-only witness bogus", trial)
			}
		}
	}
}

// bruteForceFairRun enumerates runs with prefix and loop up to the given
// length and reports whether any is strongly fair with accepted word.
func bruteForceFairRun(sys *ts.System, prop *buchi.Buchi, maxLen int) bool {
	edges := sys.Edges()
	var walk func(cur ts.State, path []ts.Edge) bool
	check := func(path []ts.Edge) bool {
		// Try every split into prefix + loop.
		for split := 0; split < len(path); split++ {
			loop := path[split:]
			if loop[len(loop)-1].To != loop[0].From {
				continue
			}
			r := Run{Prefix: path[:split], Loop: loop}
			if r.Validate(sys) != nil {
				continue
			}
			if oracle.IsFair(sys, oracle.EdgeLasso(r), oracle.StronglyFair) && prop.AcceptsLasso(r.Word()) {
				return true
			}
		}
		return false
	}
	walk = func(cur ts.State, path []ts.Edge) bool {
		if len(path) > 0 && check(path) {
			return true
		}
		if len(path) == 2*maxLen {
			return false
		}
		for _, e := range edges {
			if e.From != cur {
				continue
			}
			if walk(e.To, append(path, e)) {
				return true
			}
		}
		return false
	}
	return walk(sys.Initial(), nil)
}
