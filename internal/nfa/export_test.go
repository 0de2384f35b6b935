package nfa

// IncludedAntichainCap is the antichain route under an explicit
// simulation-seeding cap, so the external tests can compare seeded and
// unseeded searches.
var IncludedAntichainCap = includedAntichain
