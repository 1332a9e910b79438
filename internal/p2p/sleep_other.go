//go:build !linux

package p2p

import "time"

// sleepPrecise falls back to the runtime's sleep where the kernel sleep is
// not wired up.
func sleepPrecise(d time.Duration) { time.Sleep(d) }
