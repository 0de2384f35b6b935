package nfa

import (
	"math/rand"
	"sync"
	"testing"

	"relive/internal/alphabet"
)

// randomNFA builds a seeded random automaton inline (the gen package
// imports nfa, so the test cannot use it).
func randomNFA(rng *rand.Rand, ab *alphabet.Alphabet, states int) *NFA {
	a := New(ab)
	for i := 0; i < states; i++ {
		a.AddState(rng.Float64() < 0.3)
	}
	for i := 0; i < states; i++ {
		for _, sym := range ab.Symbols() {
			for k := 0; k < 1+rng.Intn(2); k++ {
				a.AddTransition(State(i), sym, State(rng.Intn(states)))
			}
		}
	}
	a.SetInitial(0)
	return a
}

// TestCompiledSharedAcrossGoroutines shares one NFA across many
// goroutines that concurrently force the lazy CSR compilation through
// the exported decision procedures. Before the cache became an atomic
// pointer this was a data race under `go test -race`: the first caller
// published the compiled form while concurrent readers were loading the
// cache field.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ab := alphabet.New()
	ab.Symbol("a")
	ab.Symbol("b")
	ab.Symbol("c")
	// Kept small: Included runs an on-the-fly subset construction, which
	// is exponential in the worst case, and 16 goroutines run it at once.
	a := randomNFA(rng, ab, 10)
	b := randomNFA(rng, ab, 8)

	const goroutines = 16
	empty := make([]bool, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every path below reaches Compiled() on the shared automaton.
			empty[g] = a.IsEmpty()
			_ = a.Trim().NumStates()
			if ok, w, _ := IncludedCtx(nil, a, a); !ok {
				t.Errorf("automaton not included in itself: counterexample %v", w)
			}
			IncludedCtx(nil, a, b)
			if c := a.Compiled(); c.NumStates() != a.NumStates() {
				t.Errorf("compiled form has %d states, automaton has %d", c.NumStates(), a.NumStates())
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if empty[g] != empty[0] {
			t.Fatalf("goroutine %d saw IsEmpty=%v, goroutine 0 saw %v", g, empty[g], empty[0])
		}
	}
}

// TestCompiledInvalidatedAfterMutation pins the staleness check on the
// lazily compiled form: mutating the automaton after a compile must not
// serve the stale CSR.
func TestCompiledInvalidatedAfterMutation(t *testing.T) {
	ab := alphabet.New()
	ab.Symbol("a")
	ab.Symbol("b")
	a := New(ab)
	q0 := a.AddState(false)
	a.SetInitial(q0)
	a.AddTransition(q0, ab.Symbol("a"), q0)
	if !a.IsEmpty() { // compiles: no accepting state yet
		t.Fatal("expected empty before adding an accepting state")
	}
	q1 := a.AddState(true)
	a.AddTransition(q0, ab.Symbol("b"), q1)
	if a.IsEmpty() {
		t.Fatal("stale compiled form served after mutation")
	}
}

// NumStates returns the number of states of the compiled automaton.
func (c *Compiled) NumStates() int { return c.n }
