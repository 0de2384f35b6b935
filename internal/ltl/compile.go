package ltl

import (
	"fmt"

	"relive/internal/alphabet"
	"relive/internal/word"
)

// Program is a formula compiled against a labeling for evaluation on
// many lassos: its distinct subformulas listed once in postorder, with
// operands as indices and every atom resolved to a table over the
// letters. A Program is immutable, so goroutines share one; each
// evaluates it through its own Evaluator.
type Program struct {
	instrs []instr
	root   int
}

// instr computes one subformula's truth value at every lasso position
// from the values of earlier instructions.
type instr struct {
	op   Op // a core operator, OpImplies or OpIff; the other abbreviations are desugared
	l, r int
	// atom[sym] is whether the atom holds at letter sym, for OpAtom.
	// Letters past its end satisfy no proposition.
	atom []bool
}

// Compile resolves f against lab once, desugaring ◇, □, B and W exactly
// as EvalLasso does. The labeling is read now: later SetLabel calls do
// not reach the program.
func Compile(f *Formula, lab *Labeling) *Program {
	c := compiler{lab: lab, index: map[string]int{}}
	root := c.add(f)
	return &Program{instrs: c.instrs, root: root}
}

type compiler struct {
	lab    *Labeling
	index  map[string]int // Formula.Key → instruction
	instrs []instr
}

func (c *compiler) add(g *Formula) int {
	k := g.Key()
	if i, ok := c.index[k]; ok {
		return i
	}
	var in instr
	switch g.Op {
	case OpTrue, OpFalse:
		in = instr{op: g.Op}
	case OpAtom:
		in = instr{op: OpAtom, atom: c.lab.table(g.Name)}
	case OpNot, OpNext:
		in = instr{op: g.Op, l: c.add(g.Left)}
	case OpAnd, OpOr, OpImplies, OpIff, OpUntil, OpRelease:
		l := c.add(g.Left)
		in = instr{op: g.Op, l: l, r: c.add(g.Right)}
	case OpEventually:
		return c.alias(k, Until(True(), g.Left))
	case OpGlobally:
		return c.alias(k, Release(False(), g.Left))
	case OpBefore:
		return c.alias(k, Not(Until(Not(g.Left), g.Right)))
	case OpWeakUntil:
		return c.alias(k, Or(Until(g.Left, g.Right), Globally(g.Left)))
	default:
		panic(fmt.Sprintf("ltl: unknown operator %d", int(g.Op)))
	}
	c.instrs = append(c.instrs, in)
	c.index[k] = len(c.instrs) - 1
	return len(c.instrs) - 1
}

// alias compiles the desugaring of the abbreviation keyed k and files k
// under the same instruction.
func (c *compiler) alias(k string, desugared *Formula) int {
	i := c.add(desugared)
	c.index[k] = i
	return i
}

// table returns Has(sym, prop) for every letter sym up to the last one
// whose label holds prop.
func (l *Labeling) table(prop string) []bool {
	n := 0
	for sym, props := range l.labels {
		if props[prop] && int(sym) >= n {
			n = int(sym) + 1
		}
	}
	t := make([]bool, n)
	for sym, props := range l.labels {
		if props[prop] && sym >= 0 {
			t[sym] = true
		}
	}
	return t
}

// Evaluator evaluates one Program on lassos in scratch it owns: one row
// of truth values per instruction, in a buffer that grows to the
// longest lasso seen and is reused. It is not safe for concurrent use.
type Evaluator struct {
	p   *Program
	buf []bool
}

// Evaluator returns a fresh evaluator of p.
func (p *Program) Evaluator() *Evaluator { return &Evaluator{p: p} }

// Eval reports whether l satisfies the program's formula; it agrees
// with EvalLasso on the formula and labeling the program was compiled
// from. Every instruction gets a row over the positions of l (prefix
// positions plus one copy of the loop, whose last position wraps to the
// loop start). Until is a least and Release a greatest fixpoint over
// the wrapped positions. Once the buffer has grown, Eval allocates
// nothing.
func (e *Evaluator) Eval(l word.Lasso) (bool, error) {
	if !l.Valid() {
		return false, fmt.Errorf("ltl: invalid lasso (empty loop)")
	}
	pre := len(l.Prefix)
	n := pre + len(l.Loop)
	if need := len(e.p.instrs) * n; cap(e.buf) < need {
		e.buf = make([]bool, need)
	}
	row := func(k int) []bool { return e.buf[k*n : (k+1)*n : (k+1)*n] }
	for k, in := range e.p.instrs {
		v := row(k)
		switch in.op {
		case OpTrue:
			for i := range v {
				v[i] = true
			}
		case OpFalse:
			clear(v)
		case OpAtom:
			for i, sym := range l.Prefix {
				v[i] = holds(in.atom, sym)
			}
			for i, sym := range l.Loop {
				v[pre+i] = holds(in.atom, sym)
			}
		case OpNot:
			a := row(in.l)
			for i := range v {
				v[i] = !a[i]
			}
		case OpAnd:
			a, b := row(in.l), row(in.r)
			for i := range v {
				v[i] = a[i] && b[i]
			}
		case OpOr:
			a, b := row(in.l), row(in.r)
			for i := range v {
				v[i] = a[i] || b[i]
			}
		case OpImplies:
			a, b := row(in.l), row(in.r)
			for i := range v {
				v[i] = !a[i] || b[i]
			}
		case OpIff:
			a, b := row(in.l), row(in.r)
			for i := range v {
				v[i] = a[i] == b[i]
			}
		case OpNext:
			a := row(in.l)
			copy(v, a[1:])
			v[n-1] = a[pre]
		case OpUntil:
			a, b := row(in.l), row(in.r)
			// Least fixpoint: start false, iterate to convergence.
			clear(v)
			for changed := true; changed; {
				changed = false
				for i, next := n-1, pre; i >= 0; i, next = i-1, i {
					if nv := b[i] || (a[i] && v[next]); nv != v[i] {
						v[i] = nv
						changed = true
					}
				}
			}
		case OpRelease:
			a, b := row(in.l), row(in.r)
			// Greatest fixpoint: start true, iterate to convergence.
			for i := range v {
				v[i] = true
			}
			for changed := true; changed; {
				changed = false
				for i, next := n-1, pre; i >= 0; i, next = i-1, i {
					if nv := b[i] && (a[i] || v[next]); nv != v[i] {
						v[i] = nv
						changed = true
					}
				}
			}
		}
	}
	return row(e.p.root)[0], nil
}

// holds looks sym up in an atom's table.
func holds(atom []bool, sym alphabet.Symbol) bool {
	return uint(sym) < uint(len(atom)) && atom[sym]
}
