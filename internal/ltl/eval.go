package ltl

import (
	"fmt"

	"relive/internal/word"
)

// EvalLasso evaluates the formula on the ultimately periodic ω-word l
// under the labeling λ, implementing the PLTL semantics of Section 3
// directly. It serves as the semantic oracle that the automata-theoretic
// translation and Compile are tested against.
//
// The algorithm assigns a truth value to every subformula at every
// position of the lasso (prefix positions plus one copy of the loop,
// whose last position wraps to the loop start). Until is a least and
// Release a greatest fixpoint over the wrapped positions.
func EvalLasso(f *Formula, l word.Lasso, lab *Labeling) (bool, error) {
	if !l.Valid() {
		return false, fmt.Errorf("ltl: invalid lasso (empty loop)")
	}
	n := len(l.Prefix) + len(l.Loop)
	next := func(i int) int {
		if i+1 < n {
			return i + 1
		}
		return len(l.Prefix)
	}

	vals := map[string][]bool{}
	var eval func(g *Formula) []bool
	eval = func(g *Formula) []bool {
		if v, ok := vals[g.Key()]; ok {
			return v
		}
		v := make([]bool, n)
		switch g.Op {
		case OpTrue:
			for i := range v {
				v[i] = true
			}
		case OpFalse:
			// all false
		case OpAtom:
			for i := 0; i < n; i++ {
				v[i] = lab.Has(l.At(i), g.Name)
			}
		case OpNot:
			sub := eval(g.Left)
			for i := range v {
				v[i] = !sub[i]
			}
		case OpAnd:
			a, b := eval(g.Left), eval(g.Right)
			for i := range v {
				v[i] = a[i] && b[i]
			}
		case OpOr:
			a, b := eval(g.Left), eval(g.Right)
			for i := range v {
				v[i] = a[i] || b[i]
			}
		case OpImplies:
			a, b := eval(g.Left), eval(g.Right)
			for i := range v {
				v[i] = !a[i] || b[i]
			}
		case OpIff:
			a, b := eval(g.Left), eval(g.Right)
			for i := range v {
				v[i] = a[i] == b[i]
			}
		case OpNext:
			sub := eval(g.Left)
			for i := range v {
				v[i] = sub[next(i)]
			}
		case OpUntil:
			a, b := eval(g.Left), eval(g.Right)
			// Least fixpoint: start false, iterate to convergence.
			for changed := true; changed; {
				changed = false
				for i := n - 1; i >= 0; i-- {
					nv := b[i] || (a[i] && v[next(i)])
					if nv != v[i] {
						v[i] = nv
						changed = true
					}
				}
			}
		case OpRelease:
			a, b := eval(g.Left), eval(g.Right)
			// Greatest fixpoint: start true, iterate to convergence.
			for i := range v {
				v[i] = true
			}
			for changed := true; changed; {
				changed = false
				for i := n - 1; i >= 0; i-- {
					nv := b[i] && (a[i] || v[next(i)])
					if nv != v[i] {
						v[i] = nv
						changed = true
					}
				}
			}
		case OpEventually:
			return eval(Until(True(), g.Left))
		case OpGlobally:
			return eval(Release(False(), g.Left))
		case OpBefore:
			return eval(Not(Until(Not(g.Left), g.Right)))
		case OpWeakUntil:
			return eval(Or(Until(g.Left, g.Right), Globally(g.Left)))
		default:
			panic(fmt.Sprintf("ltl: unknown operator %d", int(g.Op)))
		}
		vals[g.Key()] = v
		return v
	}
	return eval(f)[0], nil
}
