package word

import (
	"fmt"

	"relive/internal/alphabet"
)

// Lasso is an ultimately periodic ω-word u·v^ω. Loop must be nonempty for
// the lasso to denote an infinite word; the zero value is not a valid
// ω-word.
type Lasso struct {
	Prefix Word // u, possibly empty
	Loop   Word // v, must be nonempty
}

// NewLasso returns the ω-word prefix·loop^ω. It returns an error when the
// loop is empty, since v^ω is undefined for v = ε.
func NewLasso(prefix, loop Word) (Lasso, error) {
	if len(loop) == 0 {
		return Lasso{}, fmt.Errorf("lasso: empty loop")
	}
	return Lasso{Prefix: prefix.Clone(), Loop: loop.Clone()}, nil
}

// MustLasso is NewLasso for statically known-good inputs, mainly tests
// and examples. It panics on an empty loop.
func MustLasso(prefix, loop Word) Lasso {
	l, err := NewLasso(prefix, loop)
	if err != nil {
		panic(err)
	}
	return l
}

// Valid reports whether l denotes an ω-word (nonempty loop).
func (l Lasso) Valid() bool { return len(l.Loop) > 0 }

// At returns the i-th letter (0-based) of the ω-word.
func (l Lasso) At(i int) alphabet.Symbol {
	if i < len(l.Prefix) {
		return l.Prefix[i]
	}
	return l.Loop[(i-len(l.Prefix))%len(l.Loop)]
}

// PrefixOfLen returns the finite prefix of length n of the ω-word.
func (l Lasso) PrefixOfLen(n int) Word {
	out := make(Word, n)
	for i := 0; i < n; i++ {
		out[i] = l.At(i)
	}
	return out
}

// Normalize returns a canonical representation of the same ω-word: the
// loop is reduced to its primitive root, the prefix is shortened as far
// as possible by absorbing it into loop rotations, and then the prefix is
// the shortest possible one.
func (l Lasso) Normalize() Lasso {
	loop := primitiveRoot(l.Loop)
	prefix := l.Prefix.Clone()
	// While the last prefix letter equals the last loop letter, rotate the
	// loop backwards and shrink the prefix: u·a (b₁…bₖa)^ω = u (a b₁…bₖ)^ω.
	for len(prefix) > 0 && prefix[len(prefix)-1] == loop[len(loop)-1] {
		last := loop[len(loop)-1]
		rotated := make(Word, 0, len(loop))
		rotated = append(rotated, last)
		rotated = append(rotated, loop[:len(loop)-1]...)
		loop = rotated
		prefix = prefix[:len(prefix)-1]
	}
	return Lasso{Prefix: prefix, Loop: loop}
}

// primitiveRoot returns the shortest word r with r^k = v.
func primitiveRoot(v Word) Word {
	n := len(v)
	for d := 1; d <= n/2; d++ {
		if n%d != 0 {
			continue
		}
		ok := true
		for i := d; i < n && ok; i++ {
			ok = v[i] == v[i-d]
		}
		if ok {
			return v[:d].Clone()
		}
	}
	return v.Clone()
}

// Equal reports whether two lassos denote the same ω-word. Two ultimately
// periodic words are equal iff they agree on a prefix of length
// max(|u₁|,|u₂|) + lcm(|v₁|,|v₂|).
func (l Lasso) Equal(o Lasso) bool {
	if !l.Valid() || !o.Valid() {
		return false
	}
	n := max(len(l.Prefix), len(o.Prefix)) + lcm(len(l.Loop), len(o.Loop))
	for i := 0; i < n; i++ {
		if l.At(i) != o.At(i) {
			return false
		}
	}
	return true
}

// String renders the lasso as "u·(v)^ω" using names from ab.
func (l Lasso) String(ab *alphabet.Alphabet) string {
	loop := "(" + l.Loop.String(ab) + ")^ω"
	if len(l.Prefix) == 0 {
		return loop
	}
	return l.Prefix.String(ab) + "·" + loop
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
