//go:build !linux

package p2p

import "time"

// alarm is a runtime timer: where no timerfd exists, the pacer waits as
// the per-message timers do. A stale expiry left by a re-arm only wakes the
// pacer early, and it re-reads the clock.
type alarm struct{ t *time.Timer }

func openAlarm() (*alarm, error) {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &alarm{t}, nil
}

func (a *alarm) set(d time.Duration) { a.t.Reset(d) }
func (a *alarm) wait()               { <-a.t.C }
func (a *alarm) close()              { a.t.Stop() }
