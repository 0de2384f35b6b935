package ltl

import (
	"sync"
	"testing"

	"relive/internal/alphabet"
)

// TestKeySharedAcrossGoroutines evaluates one fresh formula from many
// goroutines, the way the statistical engine's walkers share a
// property. EvalLasso keys its memo table by Formula.Key, so every
// goroutine races to fill the same lazily memoized keys; under
// `go test -race` a plain memo field is a data race. The verdicts must
// also agree.
func TestKeySharedAcrossGoroutines(t *testing.T) {
	ab := alphabet.FromNames("a", "b")
	lab := Canonical(ab)
	f := MustParse("G (a -> F b) && (a U (b || X a))")
	l := lasso(ab, "ab", "ba")
	want, err := EvalLasso(MustParse(f.String()), l, lab)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	got := make([]bool, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = EvalLasso(f, l, lab)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("worker %d: EvalLasso = %v, want %v", i, got[i], want)
		}
	}
}
