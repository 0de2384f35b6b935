// Package petri implements place/transition Petri nets and the
// construction of their reachability graphs as transition systems. The
// paper's introductory example (Figure 1) is a Petri net whose
// reachability graph (Figure 2) is the finite-state system the
// relative-liveness machinery is then applied to.
package petri

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"relive/internal/alphabet"
	"relive/internal/ts"
)

// PlaceID identifies a place.
type PlaceID int

// Marking assigns a token count to every place.
type Marking []int

// Clone returns a copy of the marking.
func (m Marking) Clone() Marking {
	c := make(Marking, len(m))
	copy(c, m)
	return c
}

func (m Marking) key() string {
	parts := make([]string, len(m))
	for i, v := range m {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// Transition is a net transition with multiset pre- and postconditions.
type Transition struct {
	Name string
	Pre  map[PlaceID]int
	Post map[PlaceID]int
}

// Net is a place/transition Petri net with an initial marking.
type Net struct {
	ab      *alphabet.Alphabet
	places  []string
	index   map[string]PlaceID
	trans   []Transition
	initial Marking
}

// New returns an empty net. Transition names become action symbols of
// the reachability graph.
func New() *Net {
	return &Net{ab: alphabet.New(), index: map[string]PlaceID{}}
}

// AddPlace adds a place with the given initial token count and returns
// its id. Adding an existing name returns the existing place and leaves
// its marking unchanged.
func (n *Net) AddPlace(name string, tokens int) PlaceID {
	if p, ok := n.index[name]; ok {
		return p
	}
	p := PlaceID(len(n.places))
	n.places = append(n.places, name)
	n.index[name] = p
	n.initial = append(n.initial, tokens)
	return p
}

// NumPlaces returns the number of places.
func (n *Net) NumPlaces() int { return len(n.places) }

// AddTransition adds a transition consuming pre and producing post
// tokens. Place names are interned (new places start with zero tokens).
func (n *Net) AddTransition(name string, pre, post map[string]int) {
	t := Transition{Name: name, Pre: map[PlaceID]int{}, Post: map[PlaceID]int{}}
	for pn, k := range pre {
		t.Pre[n.AddPlace(pn, 0)] = k
	}
	for pn, k := range post {
		t.Post[n.AddPlace(pn, 0)] = k
	}
	n.ab.Symbol(name)
	n.trans = append(n.trans, t)
}

// InitialMarking returns a copy of the initial marking.
func (n *Net) InitialMarking() Marking { return n.initial.Clone() }

// Enabled reports whether t is enabled at m.
func (n *Net) Enabled(t Transition, m Marking) bool {
	for p, k := range t.Pre {
		if m[p] < k {
			return false
		}
	}
	return true
}

// Fire returns the marking after firing t at m; t must be enabled.
func (n *Net) Fire(t Transition, m Marking) Marking {
	out := m.Clone()
	for p, k := range t.Pre {
		out[p] -= k
	}
	for p, k := range t.Post {
		out[p] += k
	}
	return out
}

// MarkingName renders a marking as the sorted set of marked places, with
// multiplicities for counts above one, e.g. "{free,waiting}" or
// "{buf×2,idle}". The empty marking renders as "{}".
func (n *Net) MarkingName(m Marking) string {
	var parts []string
	for p, v := range m {
		switch {
		case v == 1:
			parts = append(parts, n.places[p])
		case v > 1:
			parts = append(parts, fmt.Sprintf("%s×%d", n.places[p], v))
		}
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// ReachabilityGraph explores the markings reachable from the initial
// marking and returns them as a transition system whose actions are the
// transition names. Exploration stops with an error after maxStates
// markings, which guards against unbounded nets.
func (n *Net) ReachabilityGraph(maxStates int) (*ts.System, error) {
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	sys := ts.New(n.ab.Clone())
	seen := map[string]ts.State{}
	var queue []Marking
	intern := func(m Marking) (ts.State, bool) {
		k := m.key()
		if st, ok := seen[k]; ok {
			return st, false
		}
		st := sys.AddState(n.MarkingName(m))
		seen[k] = st
		queue = append(queue, m)
		return st, true
	}
	init, _ := intern(n.InitialMarking())
	sys.SetInitial(init)
	for qi := 0; qi < len(queue); qi++ {
		if len(seen) > maxStates {
			return nil, fmt.Errorf("petri: reachability graph exceeds %d markings", maxStates)
		}
		m := queue[qi]
		from := seen[m.key()]
		for _, t := range n.trans {
			if !n.Enabled(t, m) {
				continue
			}
			next := n.Fire(t, m)
			to, _ := intern(next)
			sym, _ := sys.Alphabet().Lookup(t.Name)
			sys.AddTransition(from, sym, to)
		}
	}
	return sys, nil
}

// DOT renders the net as a Graphviz digraph with circle places (marked
// places show their token count) and box transitions.
func (n *Net) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", name)
	for p, pn := range n.places {
		label := pn
		if n.initial[p] > 0 {
			label = fmt.Sprintf("%s (%d)", pn, n.initial[p])
		}
		fmt.Fprintf(&b, "  %q [shape=circle label=%q];\n", "p_"+pn, label)
	}
	sortedPlaces := func(m map[PlaceID]int) []PlaceID {
		out := make([]PlaceID, 0, len(m))
		for p := range m {
			out = append(out, p)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for ti, t := range n.trans {
		id := fmt.Sprintf("t_%d_%s", ti, t.Name)
		fmt.Fprintf(&b, "  %q [shape=box label=%q];\n", id, t.Name)
		for _, p := range sortedPlaces(t.Pre) {
			attr := ""
			if k := t.Pre[p]; k > 1 {
				attr = fmt.Sprintf(" [label=\"%d\"]", k)
			}
			fmt.Fprintf(&b, "  %q -> %q%s;\n", "p_"+n.places[p], id, attr)
		}
		for _, p := range sortedPlaces(t.Post) {
			attr := ""
			if k := t.Post[p]; k > 1 {
				attr = fmt.Sprintf(" [label=\"%d\"]", k)
			}
			fmt.Fprintf(&b, "  %q -> %q%s;\n", id, "p_"+n.places[p], attr)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
