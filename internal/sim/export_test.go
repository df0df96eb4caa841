package sim

// RunRef exposes the reference runner (oracle_test.go) to the external
// sim_test package.
var RunRef = runRef
