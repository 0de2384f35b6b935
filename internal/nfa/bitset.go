package nfa

import "math/bits"

// This file holds the bitset substrate of the subset constructions:
// state sets as []uint64 words, interned by content under a 64-bit hash
// so the PSPACE-shaped loops (Determinize, IncludedCtx, LanguageEqual)
// never build varint-string keys or per-set symbol maps. The hit path —
// looking up a set that has been seen before — performs no allocation;
// the allocation regression tests in alloc_test.go pin that down.

// stateBits is a fixed-width bitset over automaton states.
type stateBits []uint64

func newStateBits(numStates int) stateBits {
	words := (numStates + 63) / 64
	if words == 0 {
		// Keep one word even for a state-free automaton so set widths
		// always match setInterner's (which pads the same way) and the
		// degenerate L = ∅ case runs the ordinary code path.
		words = 1
	}
	return make(stateBits, words)
}

func (b stateBits) set(i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

func (b stateBits) clear() {
	for i := range b {
		b[i] = 0
	}
}

func (b stateBits) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// intersects reports whether b and o share a member.
func (b stateBits) intersects(o stateBits) bool {
	for i, w := range b {
		if w&o[i] != 0 {
			return true
		}
	}
	return false
}

// or adds every member of o to b. Both must have the same width.
func (b stateBits) or(o stateBits) {
	for i, w := range o {
		b[i] |= w
	}
}

// subsetOf reports whether every member of b is in o.
func (b stateBits) subsetOf(o stateBits) bool {
	for i, w := range b {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

func (b stateBits) equal(o stateBits) bool {
	for i, w := range b {
		if w != o[i] {
			return false
		}
	}
	return true
}

// hash is FNV-1a over the words; good enough to keep the interner's
// collision buckets at length one in practice.
func (b stateBits) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, w := range b {
		h ^= w
		h *= 1099511628211
	}
	return h
}

// forEach calls f with every member in ascending order.
func (b stateBits) forEach(f func(i int32)) {
	for wi, w := range b {
		base := int32(wi) << 6
		for w != 0 {
			f(base + int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// setInterner interns state bitsets by content. All interned sets live
// in one contiguous backing array (no per-set allocation), and lookups
// go through a word hash with an explicit collision bucket.
type setInterner struct {
	words   int
	byHash  map[uint64][]int32
	backing []uint64
	count   int32
}

func newSetInterner(numStates int) *setInterner {
	words := (numStates + 63) / 64
	if words == 0 {
		words = 1
	}
	return &setInterner{words: words, byHash: make(map[uint64][]int32)}
}

// at returns the stored bitset of an interned id. The slice aliases the
// backing array and is invalidated by the next intern call.
func (in *setInterner) at(id int32) stateBits {
	return stateBits(in.backing[int(id)*in.words : (int(id)+1)*in.words])
}

// intern returns the id of set, copying it into the backing store when
// it is fresh.
func (in *setInterner) intern(set stateBits) (id int32, fresh bool) {
	h := set.hash()
	for _, id := range in.byHash[h] {
		if in.at(id).equal(set) {
			return id, false
		}
	}
	id = in.count
	in.count++
	in.backing = append(in.backing, set...)
	in.byHash[h] = append(in.byHash[h], id)
	return id, true
}
