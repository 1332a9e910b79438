package p2p

import (
	"syscall"
	"time"
)

// sleepPrecise blocks the calling thread in the kernel for d, which wakes it
// within microseconds; the runtime's own timers round a sub-millisecond wait
// on an idle process up to the netpoller's millisecond. An interrupted sleep
// returns early, which the caller's deadline check absorbs.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
