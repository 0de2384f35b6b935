package buchi

import (
	"math/rand"
	"sync"
	"testing"

	"relive/internal/genbase"
)

// TestCompiledSharedAcrossGoroutines shares a single automaton across
// many goroutines that all trigger the lazy CSR compilation and then
// run the compiled-form decision procedures. Before the cache became an
// atomic pointer this was a data race (caught by `go test -race`): one
// goroutine would publish the compiled form while others were reading
// the cache field.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ab := genbase.Letters(3)
	cfg := genbase.Config{States: 30, Symbols: 3, Density: 0.8, AcceptRatio: 0.3}
	b, err := FromNFA(genbase.NFA(rng, cfg, ab))
	if err != nil {
		t.Fatal(err)
	}
	cfg.States = 15
	other, err := FromNFA(genbase.NFA(rng, cfg, ab))
	if err != nil {
		t.Fatal(err)
	}
	// Inclusion complements its right operand (rank-based, exponential),
	// so it gets a small shared pair; the polynomial procedures share the
	// larger random automata.
	ab2 := genbase.Letters(2)
	inf, fin := infManyA(ab2), finManyA(ab2)

	const goroutines = 16
	empty := make([]bool, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each path below reaches compiled() on a shared automaton.
			empty[g] = b.IsEmpty()
			if l, ok := b.AcceptingLasso(); ok && !b.AcceptsLasso(l) {
				t.Error("witness lasso rejected by its own automaton")
			}
			_ = product(b, other).IsEmpty()
			if ok, _, err := Included(inf, fin); err != nil {
				t.Error(err)
			} else if ok {
				t.Error("inf-many-a reported included in fin-many-a")
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

// TestCompiledInvalidatedAfterMutation pins the staleness check: a
// mutation after a compile must not serve the stale CSR form.
func TestCompiledInvalidatedAfterMutation(t *testing.T) {
	ab := genbase.Letters(2)
	b := New(ab)
	q0 := b.AddState(false)
	b.SetInitial(q0)
	b.AddTransition(q0, ab.Symbol("a"), q0)
	if !b.IsEmpty() { // compiles: no accepting state yet
		t.Fatal("expected empty before adding an accepting state")
	}
	q1 := b.AddState(true)
	b.AddTransition(q0, ab.Symbol("b"), q1)
	b.AddTransition(q1, ab.Symbol("b"), q1)
	if b.IsEmpty() {
		t.Fatal("stale compiled form served after mutation")
	}
}
