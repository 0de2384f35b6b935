package ltl

// Simplify returns an equivalent, usually smaller formula in negation
// normal form. It normalizes first and then applies standard rewrite
// rules bottom-up: Boolean constant folding and idempotence, temporal
// constant propagation (○true = true, ξ U true = true, ξ R false =
// false, ...), idempotence of U/R, and the ◇□◇/□◇□ absorption laws.
// The test suite checks semantic equivalence on sampled words and by
// automata-based equivalence.
func Simplify(f *Formula) *Formula {
	return simplify(f.Normalize())
}

func simplify(f *Formula) *Formula {
	switch f.Op {
	case OpTrue, OpFalse, OpAtom, OpNot:
		return f
	case OpAnd:
		l, r := simplify(f.Left), simplify(f.Right)
		switch {
		case l.Op == OpFalse || r.Op == OpFalse:
			return False()
		case l.Op == OpTrue:
			return r
		case r.Op == OpTrue:
			return l
		case l.Equal(r):
			return l
		case complementary(l, r):
			return False()
		}
		return And(l, r)
	case OpOr:
		l, r := simplify(f.Left), simplify(f.Right)
		switch {
		case l.Op == OpTrue || r.Op == OpTrue:
			return True()
		case l.Op == OpFalse:
			return r
		case r.Op == OpFalse:
			return l
		case l.Equal(r):
			return l
		case complementary(l, r):
			return True()
		}
		return Or(l, r)
	case OpNext:
		sub := simplify(f.Left)
		if sub.Op == OpTrue || sub.Op == OpFalse {
			return sub
		}
		return Next(sub)
	case OpUntil:
		l, r := simplify(f.Left), simplify(f.Right)
		switch {
		case r.Op == OpTrue:
			return True()
		case r.Op == OpFalse:
			return False()
		case l.Op == OpFalse:
			return r
		case l.Equal(r):
			return l
		}
		// ◇◇ξ = ◇ξ: true U (true U ξ) → true U ξ.
		if l.Op == OpTrue && isEventually(r) {
			return r
		}
		// ◇□◇ξ = □◇ξ: true U (false R (true U ξ)).
		if l.Op == OpTrue && isGlobally(r) && isEventually(r.Right) {
			return r
		}
		return Until(l, r)
	case OpRelease:
		l, r := simplify(f.Left), simplify(f.Right)
		switch {
		case r.Op == OpTrue:
			return True()
		case r.Op == OpFalse:
			return False()
		case l.Op == OpTrue:
			return r
		case l.Equal(r):
			return l
		}
		// □□ξ = □ξ: false R (false R ξ).
		if l.Op == OpFalse && isGlobally(r) {
			return r
		}
		// □◇□ξ = ◇□ξ: false R (true U (false R ξ)).
		if l.Op == OpFalse && isEventually(r) && isGlobally(r.Right) {
			return r
		}
		return Release(l, r)
	}
	// Normalize removed everything else.
	panic("ltl: non-normalized formula in simplify")
}

func isEventually(f *Formula) bool { return f.Op == OpUntil && f.Left.Op == OpTrue }
func isGlobally(f *Formula) bool   { return f.Op == OpRelease && f.Left.Op == OpFalse }

// complementary reports whether two formulas are literal complements
// (p vs ¬p).
func complementary(l, r *Formula) bool {
	if l.Op == OpNot && l.Left.Op == OpAtom && r.Op == OpAtom {
		return l.Left.Name == r.Name
	}
	if r.Op == OpNot && r.Left.Op == OpAtom && l.Op == OpAtom {
		return r.Left.Name == l.Name
	}
	return false
}

// Equivalent reports whether f and g agree on every ω-word over the
// labeling's alphabet, by emptiness of L(f ∧ ¬g) and L(¬f ∧ g).
func Equivalent(f, g *Formula, lab *Labeling) bool {
	// Without a context, the translation cannot fail.
	fNotG, _ := TranslateBuchi(nil, And(f, Not(g)), lab)
	if !fNotG.IsEmpty() {
		return false
	}
	notFG, _ := TranslateBuchi(nil, And(Not(f), g), lab)
	return notFG.IsEmpty()
}
