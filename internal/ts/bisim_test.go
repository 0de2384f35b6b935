package ts

import (
	"fmt"
	"math/rand"
	"testing"

	"relive/internal/alphabet"
	"relive/internal/nfa"
)

func TestBisimulationQuotientMergesTwins(t *testing.T) {
	// Two states with identical behavior must merge.
	ab := alphabet.FromNames("a", "b")
	s := New(ab)
	s.AddEdge("s0", "a", "l")
	s.AddEdge("s0", "a", "r")
	s.AddEdge("l", "b", "s0")
	s.AddEdge("r", "b", "s0")
	init, _ := s.LookupState("s0")
	s.SetInitial(init)
	q, err := s.BisimulationQuotient()
	if err != nil {
		t.Fatal(err)
	}
	if q.NumStates() != 2 {
		t.Errorf("quotient has %d states, want 2", q.NumStates())
	}
	ok, err := Bisimilar(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("system not bisimilar to its quotient")
	}
}

func TestBisimulationDistinguishes(t *testing.T) {
	// Deadlock potential distinguishes: s0 -a-> live loop, t0 -a-> dead.
	ab := alphabet.FromNames("a")
	s := New(ab)
	s.AddEdge("s0", "a", "s0")
	si, _ := s.LookupState("s0")
	s.SetInitial(si)

	d := New(ab)
	d.AddEdge("t0", "a", "dead")
	di, _ := d.LookupState("t0")
	d.SetInitial(di)

	ok, err := Bisimilar(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("looping and deadlocking systems reported bisimilar")
	}
}

func TestBisimilarErrors(t *testing.T) {
	ab := alphabet.FromNames("a")
	noInit := New(ab)
	noInit.AddState("x")
	good := New(ab)
	good.AddEdge("y", "a", "y")
	gi, _ := good.LookupState("y")
	good.SetInitial(gi)
	if _, err := Bisimilar(noInit, good); err == nil {
		t.Error("Bisimilar accepted a system without initial state")
	}
	if _, err := noInit.BisimulationQuotient(); err == nil {
		t.Error("quotient accepted a system without initial state")
	}
}

// TestQuickQuotientPreservesLanguage: the quotient accepts exactly the
// same finite-path language on random systems.
func TestQuickQuotientPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	ab := alphabet.FromNames("a", "b")
	for trial := 0; trial < 60; trial++ {
		s := New(ab)
		n := 1 + rng.Intn(7)
		for i := 0; i < n; i++ {
			s.AddState(fmt.Sprintf("s%d", i))
		}
		for i := 0; i < n; i++ {
			for _, sym := range ab.Symbols() {
				for k := 0; k < 2; k++ {
					if rng.Float64() < 0.45 {
						from, _ := s.LookupState(fmt.Sprintf("s%d", i))
						to, _ := s.LookupState(fmt.Sprintf("s%d", rng.Intn(n)))
						s.AddTransition(from, sym, to)
					}
				}
			}
		}
		init, _ := s.LookupState("s0")
		s.SetInitial(init)

		q, err := s.BisimulationQuotient()
		if err != nil {
			t.Fatal(err)
		}
		if q.NumStates() > s.NumStates() {
			t.Fatalf("trial %d: quotient grew: %d > %d", trial, q.NumStates(), s.NumStates())
		}
		a1, err := s.NFA()
		if err != nil {
			t.Fatal(err)
		}
		a2, err := q.NFA()
		if err != nil {
			t.Fatal(err)
		}
		if eq, w := nfa.LanguageEqual(a1, a2); !eq {
			t.Fatalf("trial %d: quotient changed the language, witness %s\n%s",
				trial, w.String(ab), s.FormatString())
		}
		bisim, err := Bisimilar(s, q)
		if err != nil {
			t.Fatal(err)
		}
		if !bisim {
			t.Fatalf("trial %d: system not bisimilar to quotient", trial)
		}
	}
}

// TestQuickBisimilarReflexiveUnderRenaming: a system is bisimilar to a
// state-renamed copy of itself.
func TestQuickBisimilarRenamedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	ab := alphabet.FromNames("a", "b")
	for trial := 0; trial < 30; trial++ {
		s := New(ab)
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			s.AddState(fmt.Sprintf("s%d", i))
		}
		for i := 0; i < n; i++ {
			for _, sym := range ab.Symbols() {
				if rng.Float64() < 0.6 {
					from, _ := s.LookupState(fmt.Sprintf("s%d", i))
					to, _ := s.LookupState(fmt.Sprintf("s%d", rng.Intn(n)))
					s.AddTransition(from, sym, to)
				}
			}
		}
		init, _ := s.LookupState("s0")
		s.SetInitial(init)

		copySys := New(ab)
		for i := 0; i < n; i++ {
			copySys.AddState(fmt.Sprintf("t%d", i))
		}
		for _, e := range s.Edges() {
			from, _ := copySys.LookupState(fmt.Sprintf("t%d", e.From))
			to, _ := copySys.LookupState(fmt.Sprintf("t%d", e.To))
			copySys.AddTransition(from, e.Sym, to)
		}
		ci, _ := copySys.LookupState("t0")
		copySys.SetInitial(ci)

		ok, err := Bisimilar(s, copySys)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: system not bisimilar to its renamed copy", trial)
		}
	}
}

// Bisimilar reports whether two systems are strongly bisimilar from
// their initial states, by refining a joint partition over the disjoint
// union of their state spaces.
func Bisimilar(a, b *System) (bool, error) {
	if a.initial < 0 || b.initial < 0 {
		return false, fmt.Errorf("ts: system has no initial state")
	}
	// Merge alphabets so action symbols agree by name.
	ab := a.ab.Clone()
	mapB := ab.Extend(b.ab)

	joint := New(ab)
	for i := 0; i < a.NumStates(); i++ {
		joint.AddState("a:" + a.names[i])
	}
	for i := 0; i < b.NumStates(); i++ {
		joint.AddState("b:" + b.names[i])
	}
	offset := State(a.NumStates())
	for i := 0; i < a.NumStates(); i++ {
		for sym, ts := range a.trans[i] {
			for _, t := range ts {
				joint.AddTransition(State(i), sym, t)
			}
		}
	}
	for i := 0; i < b.NumStates(); i++ {
		for sym, ts := range b.trans[i] {
			for _, t := range ts {
				joint.AddTransition(State(i)+offset, mapB[sym], t+offset)
			}
		}
	}
	class := joint.BisimulationClasses()
	return class[a.initial] == class[offset+b.initial], nil
}
