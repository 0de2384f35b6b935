package nfa

// The antichain routes under an explicit simulation-seeding cap, so the
// external tests can compare seeded and unseeded searches.
var (
	IncludedAntichainCap  = includedAntichain
	UniversalAntichainCap = universalAntichain
)
