// Package lib holds one function of each shape the unreached tool must
// name as the linker does.
package lib

// ClosureOnly is called only from a closure in the root.
func ClosureOnly() int { return 1 }

// T has a pointer-receiver and a value-receiver method.
type T struct{ n int }

// Ptr is a pointer-receiver method the root calls.
func (t *T) Ptr() int { return t.n + 2 }

// Val is a value-receiver method the root calls.
func (t T) Val() int { return t.n + 3 }

// Map is a generic function the root instantiates.
func Map[E any](xs []E, f func(E) E) []E {
	out := make([]E, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Stack is a generic type whose method the root instantiates.
type Stack[E any] struct{ Items []E }

// Push appends e.
func (s *Stack[E]) Push(e E) { s.Items = append(s.Items, e) }

// Unused is called by nothing.
func Unused() int {
	return helper()
}

// helper is called only by Unused.
func helper() int { return 4 }

// Node is an interface with a marker method.
type Node interface{ isNode() }

// Leaf implements Node.
type Leaf struct{}

func (Leaf) isNode() {}
