package core

import (
	"fmt"
	"sort"

	"relive/internal/buchi"
	"relive/internal/ts"
)

// RelativeSafetyDirect decides relative safety straight from
// Definition 4.2, as an independent second algorithm cross-validating
// the Lemma 4.4 route: P fails to be a relative safety property iff
// some behavior x ∉ P has every prefix extendable into L_ω ∩ P.
// Whether a prefix is extendable depends only on its configuration —
// the pair (set of behavior states, set of property states) reached —
// of which there are finitely many. The checker marks each reachable
// configuration "live" when the product restarted there is nonempty,
// and searches for a violating behavior in
// behaviors ∩ ¬P ∩ lim(live-configuration paths).
func RelativeSafetyDirect(sys *ts.System, p Property) (SafetyResult, error) {
	trimmed, err := sys.Trim()
	if err != nil {
		return SafetyResult{Holds: true}, nil
	}
	behaviors, err := trimmed.Behaviors()
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (direct): %w", err)
	}
	pa, err := p.Automaton(nil, sys.Alphabet())
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (direct): %w", err)
	}
	notP, err := p.NegationAutomaton(nil, sys.Alphabet())
	if err != nil {
		return SafetyResult{}, fmt.Errorf("relative safety (direct): %w", err)
	}

	// Deterministic configuration automaton.
	type cfgKey struct{ sysSet, propSet string }
	type cfgEntry struct {
		sys  []buchi.State
		prop []buchi.State
	}
	keyOf := func(set []buchi.State) string {
		b := make([]byte, 0, len(set)*2)
		for _, s := range set {
			b = append(b, byte(s), byte(s>>8))
		}
		return string(b)
	}
	sortSet := func(set map[buchi.State]bool) []buchi.State {
		out := make([]buchi.State, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	live := buchi.New(sys.Alphabet()) // safety automaton over live configurations
	index := map[cfgKey]buchi.State{}
	var entries []cfgEntry
	var queue []buchi.State
	intern := func(e cfgEntry) (buchi.State, bool) {
		k := cfgKey{keyOf(e.sys), keyOf(e.prop)}
		if s, ok := index[k]; ok {
			return s, false
		}
		s := live.AddState(true)
		index[k] = s
		entries = append(entries, e)
		queue = append(queue, s)
		return s, true
	}

	start := cfgEntry{sys: append([]buchi.State(nil), behaviors.Initial()...),
		prop: append([]buchi.State(nil), pa.Initial()...)}
	sort.Slice(start.sys, func(i, j int) bool { return start.sys[i] < start.sys[j] })
	sort.Slice(start.prop, func(i, j int) bool { return start.prop[i] < start.prop[j] })
	isLive := func(e cfgEntry) bool {
		return !buchi.IntersectEmptyFrom(behaviors, pa, e.sys, e.prop)
	}
	if !isLive(start) {
		// No behavior satisfies P at all: every x ∈ L\P has the empty
		// prefix as its dead point... on the contrary: the empty prefix
		// has no extension in L∩P, so Definition 4.2 holds vacuously.
		return SafetyResult{Holds: true}, nil
	}
	s0, _ := intern(start)
	live.SetInitial(s0)
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		e := entries[cur]
		for _, sym := range sys.Alphabet().Symbols() {
			nextSys := map[buchi.State]bool{}
			for _, s := range e.sys {
				for _, t := range behaviors.Succ(s, sym) {
					nextSys[t] = true
				}
			}
			if len(nextSys) == 0 {
				continue
			}
			nextProp := map[buchi.State]bool{}
			for _, s := range e.prop {
				for _, t := range pa.Succ(s, sym) {
					nextProp[t] = true
				}
			}
			ne := cfgEntry{sys: sortSet(nextSys), prop: sortSet(nextProp)}
			if !isLive(ne) {
				continue // dead configuration: paths through it satisfy 4.2
			}
			to, _ := intern(ne)
			live.AddTransition(cur, sym, to)
		}
	}

	// A nil ctx never cancels, so neither call can fail.
	lNotP, _ := buchi.IntersectCtx(nil, behaviors, notP)
	l, found, _ := buchi.IntersectLassoCtx(nil, lNotP, live)
	if found {
		return SafetyResult{Holds: false, Violation: l}, nil
	}
	return SafetyResult{Holds: true}, nil
}
