// Package relive is a verification library for relative liveness
// properties and behavior abstraction, reproducing
//
//	U. Nitsche and P. Wolper, "Relative Liveness and Behavior
//	Abstraction (Extended Abstract)", PODC 1997.
//
// A property P ⊆ Σ^ω is a relative liveness property of a system with
// behaviors L_ω when every finite behavior prefix can be extended to an
// infinite behavior satisfying P (Definition 4.1) — the right abstract
// reading of "true under some fairness assumption". The package decides
// relative liveness and relative safety for finite-state systems and
// ω-regular properties (PSPACE-complete, Theorem 4.5), synthesizes fair
// implementations (Theorem 5.1), decides Ochsenschläger's simplicity of
// abstracting homomorphisms (Definition 6.3), and verifies relative
// liveness properties on behavior abstractions, soundly when the
// homomorphism is simple (Theorems 8.2/8.3, Corollary 8.4).
//
// # Quick start
//
// Every check is one method of a [Checker], whose first argument is a
// context.Context; With() with no options is the default checker, and a
// formula enters as PropertyFromLTL(f, nil). The examples of
// [Checker.CheckRelativeLiveness] (satisfaction, relative liveness and
// the Theorem 5.1 synthesis on a small server) and
// [Checker.VerifyViaAbstraction] (the same property checked on an
// abstraction that hides internal actions) are the quick start; go test
// compiles and runs both.
//
// The building blocks — finite automata, Büchi automata with rank-based
// complementation, a GPVW LTL-to-Büchi translation, Petri-net
// reachability, Streett-style fair-emptiness checking — live in
// internal packages; this package is the supported surface.
package relive
