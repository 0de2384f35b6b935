package petri

import (
	"strings"
	"testing"

	"relive/internal/word"
)

// producerConsumer returns a small bounded net: produce moves a token
// from slots to items, consume moves it back. capacity = tokens in slots.
func producerConsumer(capacity int) *Net {
	n := New()
	n.AddPlace("slots", capacity)
	n.AddPlace("items", 0)
	n.AddTransition("produce", map[string]int{"slots": 1}, map[string]int{"items": 1})
	n.AddTransition("consume", map[string]int{"items": 1}, map[string]int{"slots": 1})
	return n
}

func TestFiring(t *testing.T) {
	n := producerConsumer(2)
	m := n.InitialMarking()
	prod := n.trans[0]
	cons := n.trans[1]
	if !n.Enabled(prod, m) {
		t.Fatal("produce not enabled initially")
	}
	if n.Enabled(cons, m) {
		t.Fatal("consume enabled with no items")
	}
	m1 := n.Fire(prod, m)
	if m1[0] != 1 || m1[1] != 1 {
		t.Errorf("marking after produce = %v", m1)
	}
	if m[0] != 2 {
		t.Error("Fire mutated its input marking")
	}
	m2 := n.Fire(prod, m1)
	if n.Enabled(prod, m2) {
		t.Error("produce enabled beyond capacity")
	}
}

func TestReachabilityGraph(t *testing.T) {
	n := producerConsumer(2)
	sys, err := n.ReachabilityGraph(100)
	if err != nil {
		t.Fatal(err)
	}
	// Markings: (2,0), (1,1), (0,2).
	if sys.NumStates() != 3 {
		t.Fatalf("reachability graph has %d states, want 3", sys.NumStates())
	}
	ab := sys.Alphabet()
	if !sys.AcceptsWord(word.FromNames(ab, "produce", "produce", "consume", "consume")) {
		t.Error("legal firing sequence rejected")
	}
	if sys.AcceptsWord(word.FromNames(ab, "consume")) {
		t.Error("illegal firing sequence accepted")
	}
	if sys.AcceptsWord(word.FromNames(ab, "produce", "produce", "produce")) {
		t.Error("over-capacity firing sequence accepted")
	}
}

func TestReachabilityGraphLimit(t *testing.T) {
	// Unbounded net: t produces tokens forever.
	n := New()
	n.AddPlace("p", 1)
	n.AddTransition("t", map[string]int{"p": 1}, map[string]int{"p": 2})
	if _, err := n.ReachabilityGraph(50); err == nil {
		t.Error("unbounded net did not hit the state limit")
	}
}

func TestMarkingName(t *testing.T) {
	n := producerConsumer(2)
	if got := n.MarkingName(Marking{2, 0}); got != "{slots×2}" {
		t.Errorf("MarkingName = %q", got)
	}
	if got := n.MarkingName(Marking{1, 1}); got != "{items,slots}" {
		t.Errorf("MarkingName = %q", got)
	}
	if got := n.MarkingName(Marking{0, 0}); got != "{}" {
		t.Errorf("MarkingName = %q", got)
	}
}

func TestAddPlaceIdempotent(t *testing.T) {
	n := New()
	p1 := n.AddPlace("p", 3)
	p2 := n.AddPlace("p", 99)
	if p1 != p2 {
		t.Error("AddPlace created duplicate place")
	}
	if n.InitialMarking()[p1] != 3 {
		t.Error("re-adding place changed its marking")
	}
	if n.places[p1] != "p" || n.NumPlaces() != 1 {
		t.Error("place bookkeeping wrong")
	}
}

func TestDOT(t *testing.T) {
	n := producerConsumer(1)
	dot := n.DOT("pc")
	for _, want := range []string{"digraph", "shape=circle", "shape=box", "produce", "slots (1)"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
