package exp

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestAllExperimentsPass runs the whole harness and asserts every
// observation matches the paper's claim. This is the executable
// EXPERIMENTS.md.
func TestAllExperimentsPass(t *testing.T) {
	results, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 13 {
		t.Fatalf("got %d experiments, want 13", len(results))
	}
	for _, r := range results {
		if !r.Passed() {
			t.Errorf("%s failed:\n%s", r.ID, r)
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := Result{
		ID: "E0", Artifact: "test", Title: "rendering",
		Observations: []Observation{
			info("k", "v"),
			claim("c", "x", "y", false),
		},
	}
	s := r.String()
	for _, want := range []string{"E0", "[  ] k", "[!!] c", "(paper: y)"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	if r.Passed() {
		t.Error("failing result reported as passed")
	}
}

func TestWorkerFarmGrowth(t *testing.T) {
	for n, want := range map[int]int{1: 3, 2: 9, 3: 27} {
		sys, err := WorkerFarm(n)
		if err != nil {
			t.Fatal(err)
		}
		if sys.NumStates() != want {
			t.Errorf("farm(%d) has %d states, want %d", n, sys.NumStates(), want)
		}
	}
}

// RunAll executes every experiment in order, returning results sorted
// by ID.
func RunAll() ([]Result, error) {
	var out []Result
	for _, e := range All() {
		r, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out, nil
}

func lessID(a, b string) bool {
	var ai, bi int
	fmt.Sscanf(a, "E%d", &ai)
	fmt.Sscanf(b, "E%d", &bi)
	return ai < bi
}
