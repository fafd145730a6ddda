package normalize

// MatchSets lets the benchmarks of package normalize_test, which build
// their targets with the chase, time one matchSets pass.
var MatchSets = matchSets
