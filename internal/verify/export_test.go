package verify

// ApplyMove lets the external tests perturb schedules the way the
// fuzzers do.
var ApplyMove = applyMove
