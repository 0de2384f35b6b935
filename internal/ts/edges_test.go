package ts_test

import (
	"math/rand"
	"testing"

	"relive/internal/gen"
	"relive/internal/ts"
)

// TestEdgesAllocationsIndependentOfSize pins Edges' allocation count:
// one result slice and one symbol buffer, however many states the
// system has. The small system is BenchmarkMCRunRandomGraphs' trimmed
// 54-state one; the large one is a raw 512-state generated system.
func TestEdgesAllocationsIndependentOfSize(t *testing.T) {
	ab := gen.Letters(3)
	var small *ts.System
	for seed := int64(1); small == nil; seed++ {
		if seed > 64 {
			t.Fatal("no generated system with infinite behavior in 64 seeds")
		}
		sys := gen.System(rand.New(rand.NewSource(seed)), ab, 200, 0.25)
		if tr, err := sys.Trim(); err == nil {
			small = tr
		}
	}
	large := gen.System(rand.New(rand.NewSource(512)), ab, 512, 0.25)
	if small.NumStates() != 54 || large.NumStates() != 512 {
		t.Fatalf("systems have %d and %d states, want 54 and 512", small.NumStates(), large.NumStates())
	}
	allocs := func(sys *ts.System) float64 {
		return testing.AllocsPerRun(100, func() { _ = sys.Edges() })
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("Edges allocates %v times on 54 states (%d edges), %v on 512 (%d edges)",
			a, len(small.Edges()), b, len(large.Edges()))
	}
}
