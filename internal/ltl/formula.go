// Package ltl implements propositional linear temporal logic (PLTL) as
// used in Nitsche & Wolper (PODC'97): the syntax of Section 3, positive
// and Σ-normal forms (Definitions 7.1, 7.2), the property transformation
// T / R̄ of Definition 7.4 (Figure 5), direct evaluation over ultimately
// periodic words, and a GPVW-style translation from formulas to Büchi
// automata over action alphabets via labeling functions λ : Σ → 2^AP.
package ltl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Op enumerates formula constructors.
type Op int

// Formula constructors. OpTrue..OpRelease form the negation-normal-form
// core; the remaining operators are definable abbreviations (Section 3)
// that Normalize desugars.
const (
	OpTrue Op = iota + 1
	OpFalse
	OpAtom
	OpNot
	OpAnd
	OpOr
	OpNext    // O(ξ) in the paper, often written X
	OpUntil   // (ξ) U (ζ)
	OpRelease // dual of Until; needed for positive normal form
	OpImplies
	OpIff
	OpEventually // ◇(ξ) = true U ξ
	OpGlobally   // □(ξ) = ¬◇¬ξ
	OpBefore     // (ξ) B (ζ) = ¬((¬ξ) U (ζ))
	OpWeakUntil  // (ξ) W (ζ) = (ξ U ζ) ∨ □ξ
)

// Formula is an immutable PLTL formula. Share subformulas freely; never
// mutate a formula after construction.
type Formula struct {
	Op          Op
	Name        string // atom name, only for OpAtom
	Left, Right *Formula

	// Memoized canonical form. Formulas are shared across goroutines, so
	// key is written once, by the caller that moves keyState from
	// keyUnset to keyStoring, and read only after keyState is keyReady.
	key      string
	keyState atomic.Uint32
}

// Formula.keyState values.
const (
	keyUnset uint32 = iota
	keyStoring
	keyReady
)

// Constructors. Unary operators use Left.

// True returns the constant true.
func True() *Formula { return &Formula{Op: OpTrue} }

// False returns the constant false.
func False() *Formula { return &Formula{Op: OpFalse} }

// Atom returns the atomic proposition named name.
func Atom(name string) *Formula { return &Formula{Op: OpAtom, Name: name} }

// Not returns ¬ξ.
func Not(f *Formula) *Formula { return &Formula{Op: OpNot, Left: f} }

// And returns ξ ∧ ζ.
func And(l, r *Formula) *Formula { return &Formula{Op: OpAnd, Left: l, Right: r} }

// Or returns ξ ∨ ζ.
func Or(l, r *Formula) *Formula { return &Formula{Op: OpOr, Left: l, Right: r} }

// Implies returns ξ ⇒ ζ.
func Implies(l, r *Formula) *Formula { return &Formula{Op: OpImplies, Left: l, Right: r} }

// Iff returns ξ ⇔ ζ.
func Iff(l, r *Formula) *Formula { return &Formula{Op: OpIff, Left: l, Right: r} }

// Next returns O(ξ).
func Next(f *Formula) *Formula { return &Formula{Op: OpNext, Left: f} }

// Until returns ξ U ζ.
func Until(l, r *Formula) *Formula { return &Formula{Op: OpUntil, Left: l, Right: r} }

// Release returns ξ R ζ.
func Release(l, r *Formula) *Formula { return &Formula{Op: OpRelease, Left: l, Right: r} }

// Eventually returns ◇ξ.
func Eventually(f *Formula) *Formula { return &Formula{Op: OpEventually, Left: f} }

// Globally returns □ξ.
func Globally(f *Formula) *Formula { return &Formula{Op: OpGlobally, Left: f} }

// Before returns ξ B ζ = ¬((¬ξ) U (ζ)).
func Before(l, r *Formula) *Formula { return &Formula{Op: OpBefore, Left: l, Right: r} }

// WeakUntil returns ξ W ζ = (ξ U ζ) ∨ □ξ, the until without the
// obligation that ζ ever happens.
func WeakUntil(l, r *Formula) *Formula { return &Formula{Op: OpWeakUntil, Left: l, Right: r} }

// AndAll folds a conjunction over fs; the empty conjunction is true.
func AndAll(fs ...*Formula) *Formula {
	if len(fs) == 0 {
		return True()
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = And(out, f)
	}
	return out
}

// Key returns a canonical string form usable as a map key; structurally
// equal formulas share the key.
func (f *Formula) Key() string {
	if f.keyState.Load() == keyReady {
		return f.key
	}
	var b strings.Builder
	f.writeKey(&b)
	k := b.String()
	if f.keyState.CompareAndSwap(keyUnset, keyStoring) {
		f.key = k
		f.keyState.Store(keyReady)
	}
	return k
}

func (f *Formula) writeKey(b *strings.Builder) {
	switch f.Op {
	case OpTrue:
		b.WriteString("t")
	case OpFalse:
		b.WriteString("f")
	case OpAtom:
		// strconv rather than fmt: fmt takes its printer from a
		// sync.Pool, which the race detector drops at random, so a key's
		// allocation count would vary from run to run.
		b.WriteString("a")
		b.WriteString(strconv.Itoa(len(f.Name)))
		b.WriteString(":")
		b.WriteString(f.Name)
	default:
		b.WriteString(strconv.Itoa(int(f.Op)))
		b.WriteString("(")
		if f.Left != nil {
			b.WriteString(f.Left.Key())
		}
		if f.Right != nil {
			b.WriteString(",")
			b.WriteString(f.Right.Key())
		}
		b.WriteString(")")
	}
}

// Equal reports structural equality.
func (f *Formula) Equal(g *Formula) bool { return f.Key() == g.Key() }

// String renders the formula with the paper's Unicode operators.
func (f *Formula) String() string {
	switch f.Op {
	case OpTrue:
		return "true"
	case OpFalse:
		return "false"
	case OpAtom:
		return f.Name
	case OpNot:
		return "¬" + f.Left.parenString()
	case OpNext:
		return "○" + f.Left.parenString()
	case OpEventually:
		return "◇" + f.Left.parenString()
	case OpGlobally:
		return "□" + f.Left.parenString()
	case OpAnd:
		return f.Left.parenString() + " ∧ " + f.Right.parenString()
	case OpOr:
		return f.Left.parenString() + " ∨ " + f.Right.parenString()
	case OpImplies:
		return f.Left.parenString() + " ⇒ " + f.Right.parenString()
	case OpIff:
		return f.Left.parenString() + " ⇔ " + f.Right.parenString()
	case OpUntil:
		return f.Left.parenString() + " U " + f.Right.parenString()
	case OpRelease:
		return f.Left.parenString() + " R " + f.Right.parenString()
	case OpBefore:
		return f.Left.parenString() + " B " + f.Right.parenString()
	case OpWeakUntil:
		return f.Left.parenString() + " W " + f.Right.parenString()
	}
	return "?"
}

func (f *Formula) parenString() string {
	switch f.Op {
	case OpTrue, OpFalse, OpAtom, OpNot, OpNext, OpEventually, OpGlobally:
		return f.String()
	}
	return "(" + f.String() + ")"
}

// Atoms returns the sorted set of atomic proposition names in f.
func (f *Formula) Atoms() []string {
	set := map[string]bool{}
	f.collectAtoms(set)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (f *Formula) collectAtoms(set map[string]bool) {
	if f == nil {
		return
	}
	if f.Op == OpAtom {
		set[f.Name] = true
		return
	}
	f.Left.collectAtoms(set)
	f.Right.collectAtoms(set)
}

// Size returns the number of nodes in the formula tree.
func (f *Formula) Size() int {
	if f == nil {
		return 0
	}
	return 1 + f.Left.Size() + f.Right.Size()
}

// Normalize returns an equivalent formula in negation normal form over
// the core operators {true, false, atoms, ¬atom, ∧, ∨, O, U, R}:
// abbreviations are expanded and negations pushed to the atoms. The
// result is in positive normal form in the sense of Definition 7.1.
func (f *Formula) Normalize() *Formula {
	return normalize(f, false)
}

func normalize(f *Formula, negated bool) *Formula {
	switch f.Op {
	case OpTrue:
		if negated {
			return False()
		}
		return True()
	case OpFalse:
		if negated {
			return True()
		}
		return False()
	case OpAtom:
		if negated {
			return Not(&Formula{Op: OpAtom, Name: f.Name})
		}
		return &Formula{Op: OpAtom, Name: f.Name}
	case OpNot:
		return normalize(f.Left, !negated)
	case OpAnd:
		if negated {
			return Or(normalize(f.Left, true), normalize(f.Right, true))
		}
		return And(normalize(f.Left, false), normalize(f.Right, false))
	case OpOr:
		if negated {
			return And(normalize(f.Left, true), normalize(f.Right, true))
		}
		return Or(normalize(f.Left, false), normalize(f.Right, false))
	case OpImplies:
		return normalize(Or(Not(f.Left), f.Right), negated)
	case OpIff:
		return normalize(And(Implies(f.Left, f.Right), Implies(f.Right, f.Left)), negated)
	case OpNext:
		return Next(normalize(f.Left, negated))
	case OpUntil:
		if negated {
			return Release(normalize(f.Left, true), normalize(f.Right, true))
		}
		return Until(normalize(f.Left, false), normalize(f.Right, false))
	case OpRelease:
		if negated {
			return Until(normalize(f.Left, true), normalize(f.Right, true))
		}
		return Release(normalize(f.Left, false), normalize(f.Right, false))
	case OpEventually:
		return normalize(Until(True(), f.Left), negated)
	case OpGlobally:
		return normalize(Not(Eventually(Not(f.Left))), negated)
	case OpBefore:
		return normalize(Not(Until(Not(f.Left), f.Right)), negated)
	case OpWeakUntil:
		// ξ W ζ ≡ ζ R (ξ ∨ ζ).
		return normalize(Release(f.Right, Or(f.Left, f.Right)), negated)
	}
	panic(fmt.Sprintf("ltl: unknown operator %d", int(f.Op)))
}

// IsPositiveNormalForm reports whether every negation in f applies to a
// single atomic proposition (Definition 7.1). Abbreviation operators are
// allowed; only the placement of ¬ matters.
func (f *Formula) IsPositiveNormalForm() bool {
	if f == nil {
		return true
	}
	if f.Op == OpNot {
		return f.Left.Op == OpAtom
	}
	if f.Op == OpBefore {
		// B hides a negated Until; it is not positive as written.
		return false
	}
	return f.Left.IsPositiveNormalForm() && f.Right.IsPositiveNormalForm()
}

// IsSigmaNormalForm reports whether f is in Σ-normal form for the given
// set of letter names (Definition 7.2): positive normal form with all
// atoms drawn from the alphabet.
func (f *Formula) IsSigmaNormalForm(letters map[string]bool) bool {
	if !f.IsPositiveNormalForm() {
		return false
	}
	for _, a := range f.Atoms() {
		if !letters[a] {
			return false
		}
	}
	return true
}
