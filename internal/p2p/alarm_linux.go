package p2p

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm is a Linux timerfd read through the runtime's netpoller. A
// goroutine waiting on it parks (IO wait) and holds neither a processor nor
// a thread, and epoll reports the expiry within microseconds, where the
// runtime's own timers round a sub-millisecond wait on an idle process up to
// the netpoller's millisecond.
type alarm struct {
	fd   int      // the raw descriptor, for timerfd_settime
	file *os.File // the same descriptor, registered with the netpoller
	buf  [8]byte  // the expiry count a read returns
}

// clockMonotonic is CLOCK_MONOTONIC, which package syscall does not name.
const clockMonotonic = 1

// openAlarm creates a non-blocking timerfd, which os.NewFile registers with
// the netpoller. The raw descriptor is kept for timerfd_settime, because
// (*os.File).Fd would switch it back to blocking mode, and every wait would
// then pin a thread again.
func openAlarm() (*alarm, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	a := &alarm{fd: int(fd), file: os.NewFile(fd, "timerfd")}
	// Only a descriptor the netpoller took supports deadlines; a read on one
	// it refused would return EAGAIN at once, and the pacer would spin.
	if err := a.file.SetReadDeadline(time.Time{}); err != nil {
		a.file.Close()
		return nil, err
	}
	return a, nil
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct{ interval, value syscall.Timespec }

func (a *alarm) set(d time.Duration) {
	// An all-zero value would disarm the timer instead.
	spec := itimerspec{value: syscall.NsecToTimespec(int64(max(d, 1)))}
	// It fails only on a bad descriptor or value, which the type rules out;
	// the per-message timers would deliver regardless.
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(a.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// wait reads the expiry count. A re-arm between the expiry and the read
// zeroes the count; the read then parks again until the new expiry, which
// schedule only ever moves earlier. A failed read only returns early, and the
// pacer re-reads the clock.
func (a *alarm) wait() { a.file.Read(a.buf[:]) }

func (a *alarm) close() { a.file.Close() }
