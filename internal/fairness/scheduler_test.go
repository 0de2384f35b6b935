package fairness

import (
	"testing"

	"relive/internal/alphabet"
	"relive/internal/ts"
)

func TestSchedulerVisitsAllEnabledEdges(t *testing.T) {
	sys := abLoop()
	s, err := NewScheduler(sys)
	if err != nil {
		t.Fatal(err)
	}
	trace := s.Trace(100)
	if len(trace) != 100 {
		t.Fatalf("trace length %d", len(trace))
	}
	// Longest-waiting-first on a single state strictly alternates, so
	// both edges appear equally often.
	counts := map[alphabet.Symbol]int{}
	for _, e := range trace {
		counts[e.Sym]++
	}
	for sym, c := range counts {
		if c != 50 {
			t.Errorf("edge %s taken %d times, want 50", sys.Alphabet().Name(sym), c)
		}
	}
}

func TestSchedulerFairnessWindow(t *testing.T) {
	// Star system: center chooses among three loops; each loop passes
	// through a private state. Every edge enabled infinitely often must
	// recur within a bounded window under the longest-waiting policy.
	ab := alphabet.FromNames("x", "y", "z", "back")
	sys := ts.New(ab)
	sys.AddEdge("c", "x", "px")
	sys.AddEdge("c", "y", "py")
	sys.AddEdge("c", "z", "pz")
	sys.AddEdge("px", "back", "c")
	sys.AddEdge("py", "back", "c")
	sys.AddEdge("pz", "back", "c")
	init, _ := sys.LookupState("c")
	sys.SetInitial(init)

	s, err := NewScheduler(sys)
	if err != nil {
		t.Fatal(err)
	}
	lastSeen := map[alphabet.Symbol]int{}
	trace := s.Trace(120)
	for i, e := range trace {
		if prev, ok := lastSeen[e.Sym]; ok && e.Sym != ab.Symbols()[3] {
			if i-prev > 8 {
				t.Fatalf("edge %s starved for %d steps", sys.Alphabet().Name(e.Sym), i-prev)
			}
		}
		lastSeen[e.Sym] = i
	}
	for _, name := range []string{"x", "y", "z"} {
		sym, _ := ab.Lookup(name)
		if _, ok := lastSeen[sym]; !ok {
			t.Errorf("edge %s never taken", name)
		}
	}
}

func TestSchedulerDeadEnd(t *testing.T) {
	ab := alphabet.FromNames("a")
	sys := ts.New(ab)
	sys.AddEdge("x", "a", "dead")
	init, _ := sys.LookupState("x")
	sys.SetInitial(init)
	s, err := NewScheduler(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Trace(10)); got != 1 {
		t.Errorf("trace into dead end has %d steps, want 1", got)
	}
	if _, ok := s.Step(); ok {
		t.Error("Step succeeded at a dead end")
	}
	if s.Current() == init {
		t.Error("scheduler did not move")
	}
	if _, err := NewScheduler(ts.New(ab)); err == nil {
		t.Error("scheduler accepted a system without initial state")
	}
}

// Current returns the current state.
func (s *Scheduler) Current() ts.State { return s.current }
