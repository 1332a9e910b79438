//go:build race

package p2p

// raceEnabled reports that the race detector is instrumenting this build;
// its slowdown makes wall-clock lateness meaningless.
const raceEnabled = true
