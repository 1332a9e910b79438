package p2p

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// pacerStates returns the scheduler state of every goroutine running a
// delivery queue's pacer, as a full stack dump prints it ("IO wait",
// "syscall", "runnable", ...).
func pacerStates() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var states []string
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("(*deliveryQueue).pace(")) {
			continue
		}
		header, _, _ := strings.Cut(string(g), "\n") // goroutine 7 [IO wait, 2 minutes]:
		_, state, _ := strings.Cut(header, "[")
		state, _, _ = strings.Cut(state, "]")
		state, _, _ = strings.Cut(state, ",")
		states = append(states, state)
	}
	return states
}

// TestPacerWaitsInNetpoller: with a delivery scheduled 200 ms out, the pacer
// parks on its timerfd (IO wait), holding no thread; a kernel sleep would
// show it in the syscall state.
func TestPacerWaitsInNetpoller(t *testing.T) {
	// Earlier tests' pacers exit once their queues drain.
	for deadline := time.Now().Add(time.Second); len(pacerStates()) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pacers of earlier networks still running: %v", pacerStates())
		}
	}
	const latency = 200 * time.Millisecond
	n := NewNetwork(Config{IntraZone: LinkProfile{Latency: latency}})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	got := recordHops(b, "x", 1)
	sent := time.Now()
	sendIndexed(a, 2, "x", 0)
	parked := 0
	for {
		states := pacerStates()
		if time.Since(sent) > latency*3/4 {
			break // the wake-up is near: a sample now could catch the pacer leaving its wait
		}
		switch {
		case len(states) > 1:
			t.Fatalf("%d pacers for one queue: %v", len(states), states)
		case len(states) == 1 && states[0] == "IO wait":
			parked++
		case len(states) == 1 && parked > 0:
			t.Fatalf("a parked pacer is in state %q before its deadline", states[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if parked == 0 {
		t.Fatalf("the pacer was never seen parked in the netpoller (last states %v)", pacerStates())
	}
	collectHops(t, got, 1)
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// TestPacerReleasesItsDescriptor: each pacing episode hands its timerfd to
// the spares or closes it, so networks created, used and drained one after
// another hold no more descriptors once they are idle than the spares can.
// The collector stays off meanwhile, or the finalizer of a dropped *os.File
// would close a leaked descriptor for it.
func TestPacerReleasesItsDescriptor(t *testing.T) {
	const networks = 2000
	slack := cap(spareAlarms) + 2
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := openFDs(t)
	for i := 0; i < networks; i++ {
		n := NewNetwork(Config{IntraZone: LinkProfile{Latency: 20 * time.Microsecond}, InboxSize: 1})
		a, _ := n.Join(1, 0)
		b, _ := n.Join(2, 0)
		got := recordHops(b, "x", 1)
		sendIndexed(a, 2, "x", uint32(i))
		collectHops(t, got, 1)
		a.Close()
		b.Close()
	}
	// The last pacer may still be on its way out.
	deadline := time.Now().Add(time.Second)
	for openFDs(t) > start+slack && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if end := openFDs(t); end > start+slack {
		t.Errorf("%d descriptors open after %d drained networks, %d before", end, networks, start)
	}
}
