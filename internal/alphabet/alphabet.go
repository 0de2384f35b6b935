// Package alphabet provides interned action symbols and finite alphabets.
//
// Systems, automata, temporal-logic formulas and homomorphisms in this
// module all speak about actions drawn from a finite alphabet Σ. Symbols
// are interned to small integers so that the hot automata loops never
// touch strings. Symbol 0 is reserved for the empty word ε, which appears
// as the image of hidden actions under abstracting homomorphisms
// (Definition 6.1 of Nitsche & Wolper, PODC'97) and as the ε atomic
// proposition of Definition 7.3.
package alphabet

import (
	"fmt"
	"sort"
	"strings"
)

// Symbol identifies a letter of an alphabet. The zero value is Epsilon,
// the empty word; real letters are numbered from 1.
type Symbol int

// Epsilon is the reserved symbol for the empty word ε.
const Epsilon Symbol = 0

// EpsilonName is the printable name of the Epsilon symbol.
const EpsilonName = "ε"

// Alphabet is a finite set of named symbols. The zero value is not usable;
// construct alphabets with New.
type Alphabet struct {
	names []string
	index map[string]Symbol
}

// New returns an empty alphabet containing only the reserved ε symbol.
func New() *Alphabet {
	return &Alphabet{
		names: []string{EpsilonName},
		index: map[string]Symbol{EpsilonName: Epsilon},
	}
}

// FromNames returns an alphabet containing the given symbols in order.
// Duplicate names are interned once.
func FromNames(names ...string) *Alphabet {
	a := New()
	for _, n := range names {
		a.Symbol(n)
	}
	return a
}

// Symbol interns name and returns its symbol, allocating a fresh symbol
// for names not seen before. The name "ε" maps to Epsilon.
func (a *Alphabet) Symbol(name string) Symbol {
	if s, ok := a.index[name]; ok {
		return s
	}
	s := Symbol(len(a.names))
	a.names = append(a.names, name)
	a.index[name] = s
	return s
}

// Lookup returns the symbol for name without interning it.
func (a *Alphabet) Lookup(name string) (Symbol, bool) {
	s, ok := a.index[name]
	return s, ok
}

// Name returns the printable name of s. Unknown symbols render as "?<n>".
func (a *Alphabet) Name(s Symbol) string {
	if s >= 0 && int(s) < len(a.names) {
		return a.names[s]
	}
	return fmt.Sprintf("?%d", int(s))
}

// Size returns the number of proper letters, excluding ε.
func (a *Alphabet) Size() int { return len(a.names) - 1 }

// Symbols returns all proper letters (excluding ε) in interning order.
func (a *Alphabet) Symbols() []Symbol {
	out := make([]Symbol, 0, a.Size())
	for i := 1; i < len(a.names); i++ {
		out = append(out, Symbol(i))
	}
	return out
}

// Names returns the names of all proper letters in interning order.
func (a *Alphabet) Names() []string {
	out := make([]string, 0, a.Size())
	out = append(out, a.names[1:]...)
	return out
}

// Clone returns a deep copy of the alphabet. Symbols keep their values,
// so words remain valid across the copy.
func (a *Alphabet) Clone() *Alphabet {
	c := &Alphabet{
		names: make([]string, len(a.names)),
		index: make(map[string]Symbol, len(a.index)),
	}
	copy(c.names, a.names)
	for k, v := range a.index {
		c.index[k] = v
	}
	return c
}

// Extend interns every name from other into a, returning a mapping from
// other's symbols to a's symbols. ε maps to ε.
func (a *Alphabet) Extend(other *Alphabet) map[Symbol]Symbol {
	m := make(map[Symbol]Symbol, len(other.names))
	m[Epsilon] = Epsilon
	for i := 1; i < len(other.names); i++ {
		m[Symbol(i)] = a.Symbol(other.names[i])
	}
	return m
}

// String renders the alphabet as a sorted set of letter names.
func (a *Alphabet) String() string {
	names := a.Names()
	sort.Strings(names)
	return "{" + strings.Join(names, ", ") + "}"
}
