//go:build !race

package p2p

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
