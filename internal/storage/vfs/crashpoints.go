package vfs

import (
	"errors"
	"sync"
)

// Named crash points: well-known moments in the persistence pipeline where a
// crash is most likely to strand partial state. Code under test calls
// CrashPoints.Hit(point) at each; the crash harness arms one and the process
// "dies" there — the armed point freezes the fault filesystem (preserving
// whatever it would have left on disk) and every subsequent operation fails
// with ErrCrashed until the harness revives the node.
const (
	// CrashWALAppend fires inside wal flush, after buffered records reach the
	// filesystem but before fsync — the canonical torn-tail window.
	CrashWALAppend = "wal-append"
	// CrashMemtableFlush fires at the start of a memtable→SSTable flush.
	CrashMemtableFlush = "memtable-flush"
	// CrashSSTablePublish fires after the temp sstable is written and synced
	// but before the rename that publishes it.
	CrashSSTablePublish = "sstable-publish"
	// CrashCheckpointInstall fires mid snapshot install, after chunk state is
	// written but before the store base marker commits the install.
	CrashCheckpointInstall = "checkpoint-install"
	// CrashPrune fires at the start of a checkpoint prune pass.
	CrashPrune = "prune"
	// CrashResealSweep fires at the start of a background reseal sweep.
	CrashResealSweep = "reseal-sweep"
)

// CrashPointNames lists every named crash point.
var CrashPointNames = []string{
	CrashWALAppend,
	CrashMemtableFlush,
	CrashSSTablePublish,
	CrashCheckpointInstall,
	CrashPrune,
	CrashResealSweep,
}

// ErrCrashed is returned by filesystem operations (and Hit) after a crash
// point fired: the simulated process is dead and must be revived by the
// harness before the store can be reopened.
var ErrCrashed = errors.New("vfs: simulated crash")

// Crasher is what a crash point fires into — faultfs implements it by
// freezing the filesystem at its current durable image.
type Crasher interface {
	Crash()
}

// CrashPoints coordinates named crash points for one simulated process. The
// zero value (and a nil pointer) is inert: Hit returns nil, so production
// paths pay one nil check. Arm one point, run traffic, and the first Hit on
// that point crashes the attached Crasher and closes the fired channel.
type CrashPoints struct {
	mu      sync.Mutex
	armed   string
	fired   chan struct{}
	crashed bool
	target  Crasher
}

// NewCrashPoints returns a registry whose armed points crash target (which
// may be nil for pure storage-level tests).
func NewCrashPoints(target Crasher) *CrashPoints {
	return &CrashPoints{target: target}
}

// Arm sets the next point to crash at, returning a channel closed when it
// fires. Re-arming replaces any previous un-fired point.
func (c *CrashPoints) Arm(point string) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = point
	c.fired = make(chan struct{})
	return c.fired
}

// Force crashes immediately, between points — the "power cable" fault. It is
// a no-op after a crash already happened.
func (c *CrashPoints) Force() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashLocked()
}

// Hit reports whether execution may continue past the named point. It
// returns nil normally, and ErrCrashed if this point was armed (crashing the
// attached filesystem first) or if the process already crashed.
func (c *CrashPoints) Hit(point string) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	if c.armed != "" && c.armed == point {
		c.crashLocked()
		return ErrCrashed
	}
	return nil
}

func (c *CrashPoints) crashLocked() {
	if c.crashed {
		return
	}
	c.crashed = true
	c.armed = ""
	if c.target != nil {
		c.target.Crash()
	}
	if c.fired != nil {
		close(c.fired)
		c.fired = nil
	}
}

// Crashed reports whether a crash point has fired.
func (c *CrashPoints) Crashed() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Reset clears the crashed state after the harness revives the process (the
// filesystem must be revived separately).
func (c *CrashPoints) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = false
	c.armed = ""
	c.fired = nil
}
