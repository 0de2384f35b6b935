package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"relive/internal/ts"
)

// Structural cache keys. A system is keyed by its canonical text,
// ts.FormatString of its parse. The rendering drops comments, blank
// lines and extra whitespace, but numbers states and actions by first
// appearance and keeps their names: respellings that differ in layout
// share a key, while a reordering that changes which state or action
// comes first, or a renamed state, does not (see the findings in
// bench/README.md). The system cached under a key is re-parsed from its
// canonical text, so every artifact built against it is interchangeable
// across requests. LTL properties are keyed by the canonical rendering
// of their parse tree; ω-regex properties by their raw text.

// canonSystem is a system text that parsed, with its canonical
// rendering and structural key.
type canonSystem struct {
	key   string
	canon string
	text  string // the request's own spelling
}

// canonicalSystem is the one parse → FormatString → hash step behind
// every system key, in the server and in the router alike.
func canonicalSystem(text string) (*canonSystem, error) {
	sys, err := ts.ParseString(text)
	if err != nil {
		return nil, err
	}
	canon := sys.FormatString()
	return &canonSystem{key: hashKey("sys", canon), canon: canon, text: text}, nil
}

// hashKey hashes length-prefixed parts into a fixed-size hex key, so no
// concatenation of parts can collide with a different split of the same
// bytes.
func hashKey(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}
