package oracle

import (
	"relive/internal/alphabet"
	"relive/internal/hom"
	"relive/internal/ts"
	"relive/internal/word"
)

// Fair-abstract reference: "every fair run of sys whose h-image is
// defined satisfies P", written directly from the definitions of the
// successor paper (Ultes-Nitsche & Wolper, "Checking Properties within
// Fairness and Behavior Abstractions"). Fairness of an ultimately
// periodic run is decided by its own predicate over the trimmed
// system's transitions, the h-image is applied letter by letter from
// Definition 6.1, and property membership goes through
// Property.Satisfies (direct PLTL semantics / naive lasso acceptance).
// Nothing here touches internal/fairness's Streett machinery,
// internal/core, or the compiled kernels.

// FairnessKind is the oracle's own copy of the fairness notions, so the
// reference shares not even the enum with the fast path.
type FairnessKind int

const (
	StronglyFair FairnessKind = iota + 1
	WeaklyFair
)

// EdgeLasso is an ultimately periodic run given as edges.
type EdgeLasso struct {
	Prefix []ts.Edge
	Loop   []ts.Edge
}

// Word returns the action word of the run.
func (el EdgeLasso) Word() word.Lasso {
	prefix := make(word.Word, len(el.Prefix))
	for i, e := range el.Prefix {
		prefix[i] = e.Sym
	}
	loop := make(word.Word, len(el.Loop))
	for i, e := range el.Loop {
		loop[i] = e.Sym
	}
	return word.MustLasso(prefix, loop)
}

// trimmedEdges returns the transitions surviving the trim — reachable
// from the initial state with both endpoints alive. Only these carry
// fairness obligations: a transition that no infinite run can ever take
// (or reach) is vacuously ignored by every fairness notion.
func trimmedEdges(sys *ts.System) []ts.Edge {
	if sys.Initial() < 0 {
		return nil
	}
	alive := aliveStates(sys)
	n := sys.NumStates()
	reach := make([]bool, n)
	if alive[sys.Initial()] {
		reach[sys.Initial()] = true
	}
	syms := sys.Alphabet().Symbols()
	queue := []ts.State{sys.Initial()}
	for qi := 0; qi < len(queue); qi++ {
		for _, sym := range syms {
			for _, t := range sys.Succ(queue[qi], sym) {
				if alive[t] && !reach[t] {
					reach[t] = true
					queue = append(queue, t)
				}
			}
		}
	}
	var out []ts.Edge
	for _, e := range sys.Edges() {
		if reach[e.From] && alive[e.From] && alive[e.To] {
			out = append(out, e)
		}
	}
	return out
}

// validRun checks that the edge lasso is a path of sys from the initial
// state with a closing nonempty loop.
func validRun(sys *ts.System, el EdgeLasso) bool {
	if len(el.Loop) == 0 || sys.Initial() < 0 {
		return false
	}
	cur := sys.Initial()
	step := func(e ts.Edge) bool {
		if e.From != cur {
			return false
		}
		found := false
		for _, t := range sys.Succ(e.From, e.Sym) {
			if t == e.To {
				found = true
			}
		}
		cur = e.To
		return found
	}
	for _, e := range el.Prefix {
		if !step(e) {
			return false
		}
	}
	loopStart := cur
	for _, e := range el.Loop {
		if !step(e) {
			return false
		}
	}
	return cur == loopStart
}

// IsFair decides fairness of the run directly from the definitions,
// with obligations over the trimmed transitions only. Strong transition
// fairness: every obligated transition whose source state is visited
// infinitely often (it is a loop state) is taken infinitely often (it
// is a loop edge). Weak transition fairness: a transition continuously
// enabled from some point on — which with state-based enabledness means
// the loop sits at its source state only — is taken infinitely often.
func IsFair(sys *ts.System, el EdgeLasso, kind FairnessKind) bool {
	obligated := trimmedEdges(sys)
	loopStates := map[ts.State]bool{}
	taken := map[ts.Edge]bool{}
	for _, e := range el.Loop {
		loopStates[e.From] = true
		taken[e] = true
	}
	switch kind {
	case StronglyFair:
		for _, e := range obligated {
			if loopStates[e.From] && !taken[e] {
				return false
			}
		}
		return true
	case WeaklyFair:
		if len(loopStates) > 1 {
			return true
		}
		var only ts.State
		for s := range loopStates {
			only = s
		}
		for _, e := range obligated {
			if e.From == only && !taken[e] {
				return false
			}
		}
		return true
	}
	return false
}

// applyHom computes h(u·v^ω) letter by letter per Definition 6.1,
// dropping hidden letters; ok is false when the image is finite (the
// loop maps to ε), in which case the run has no abstract image and
// cannot witness a violation.
func applyHom(h *hom.Hom, l word.Lasso) (word.Lasso, bool) {
	apply := func(w word.Word) word.Word {
		var out word.Word
		for _, sym := range w {
			if img := h.Image(sym); img != alphabet.Epsilon {
				out = append(out, img)
			}
		}
		return out
	}
	prefix, loop := apply(l.Prefix), apply(l.Loop)
	if len(loop) == 0 {
		return word.Lasso{}, false
	}
	return word.MustLasso(prefix, loop), true
}

// enumerateRunLassos lists every edge lasso of sys with at most maxLen
// edges in total, by DFS over paths from the initial state, closing a
// loop at every revisit of an earlier path state. Paths never leave the
// trimmed edge set — a lasso cannot anyway.
func enumerateRunLassos(sys *ts.System, maxLen int) []EdgeLasso {
	if sys.Initial() < 0 {
		return nil
	}
	byState := map[ts.State][]ts.Edge{}
	for _, e := range trimmedEdges(sys) {
		byState[e.From] = append(byState[e.From], e)
	}
	var out []EdgeLasso
	var path []ts.Edge
	states := []ts.State{sys.Initial()}
	var dfs func()
	dfs = func() {
		cur := states[len(states)-1]
		// Close a loop at every earlier occurrence of cur on the path.
		for j, s := range states[:len(states)-1] {
			if s == cur {
				out = append(out, EdgeLasso{
					Prefix: append([]ts.Edge{}, path[:j]...),
					Loop:   append([]ts.Edge{}, path[j:]...),
				})
			}
		}
		if len(path) == maxLen {
			return
		}
		for _, e := range byState[cur] {
			path = append(path, e)
			states = append(states, e.To)
			dfs()
			path = path[:len(path)-1]
			states = states[:len(states)-1]
		}
	}
	dfs()
	return out
}

// FairAbstractViolation searches, over all run lassos up to the bounds,
// for a fair run of sys whose h-image is defined and violates p. A
// found violation is definitive; an empty answer is exhaustive only up
// to the enumeration bound, so the differential suite treats the two
// directions asymmetrically (see ConfirmFairAbstractViolation).
func FairAbstractViolation(sys *ts.System, h *hom.Hom, kind FairnessKind, p Property, b Bounds) (EdgeLasso, bool, error) {
	for _, el := range enumerateRunLassos(sys, b.LassoPrefix+b.LassoLoop) {
		if !IsFair(sys, el, kind) {
			continue
		}
		img, ok := applyHom(h, el.Word())
		if !ok {
			continue // image undefined: not a violation
		}
		sat, err := p.Satisfies(h.Dest(), img)
		if err != nil {
			return EdgeLasso{}, false, err
		}
		if !sat {
			return el, true, nil
		}
	}
	return EdgeLasso{}, false, nil
}

// ConfirmFairAbstractViolation exactly verifies a fair-abstract
// witness: the edge lasso is a run of sys, is kind-fair (with
// obligations over the trimmed transitions), has a defined h-image, and
// that image violates p. Unlike FairAbstractViolation this is a
// complete check for the given run.
func ConfirmFairAbstractViolation(sys *ts.System, h *hom.Hom, kind FairnessKind, p Property, el EdgeLasso) (bool, error) {
	if !validRun(sys, el) {
		return false, nil
	}
	if !IsFair(sys, el, kind) {
		return false, nil
	}
	img, ok := applyHom(h, el.Word())
	if !ok {
		return false, nil
	}
	sat, err := p.Satisfies(h.Dest(), img)
	if err != nil {
		return false, err
	}
	return !sat, nil
}
