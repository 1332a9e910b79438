package p2p

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestJoinAndDuplicate(t *testing.T) {
	n := NewNetwork(Config{})
	if _, err := n.Join(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join(1, 0); err != ErrDuplicateNode {
		t.Errorf("err = %v, want ErrDuplicateNode", err)
	}
	if len(n.Peers()) != 1 {
		t.Errorf("peers = %d, want 1", len(n.Peers()))
	}
}

func TestSendDelivers(t *testing.T) {
	n := NewNetwork(Config{})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	got := make(chan Message, 1)
	b.Subscribe("ping", func(m Message) { got <- m })
	a.Send(2, "ping", []byte("hello"))
	select {
	case m := <-got:
		if m.From != 1 || string(m.Data) != "hello" {
			t.Errorf("message = %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestSendToUnknownPeerIsSilent(t *testing.T) {
	n := NewNetwork(Config{})
	a, _ := n.Join(1, 0)
	a.Send(99, "x", nil) // must not panic
}

func TestBroadcastReachesAllButSelf(t *testing.T) {
	n := NewNetwork(Config{})
	var count atomic.Int32
	sender, _ := n.Join(0, 0)
	sender.Subscribe("b", func(Message) { count.Add(100) }) // must NOT fire
	var wg sync.WaitGroup
	for i := 1; i <= 4; i++ {
		e, _ := n.Join(NodeID(i), 0)
		wg.Add(1)
		e.Subscribe("b", func(Message) { count.Add(1); wg.Done() })
	}
	sender.Broadcast("b", []byte("x"))
	waitDone(t, &wg)
	if count.Load() != 4 {
		t.Errorf("deliveries = %d, want 4", count.Load())
	}
}

func waitDone(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for deliveries")
	}
}

func TestLatencyAppliedPerZone(t *testing.T) {
	n := NewNetwork(Config{
		IntraZone: LinkProfile{Latency: 1 * time.Millisecond},
		CrossZone: LinkProfile{Latency: 30 * time.Millisecond},
	})
	a, _ := n.Join(1, 0)
	sameZone, _ := n.Join(2, 0)
	farZone, _ := n.Join(3, 1)

	measure := func(dst *Endpoint, to NodeID) time.Duration {
		got := make(chan struct{})
		dst.Subscribe("t", func(Message) { close(got) })
		start := time.Now()
		a.Send(to, "t", []byte("x"))
		<-got
		return time.Since(start)
	}
	intra := measure(sameZone, 2)
	cross := measure(farZone, 3)
	if intra > 20*time.Millisecond {
		t.Errorf("intra-zone latency %v too high", intra)
	}
	if cross < 25*time.Millisecond {
		t.Errorf("cross-zone latency %v lower than configured 30ms", cross)
	}
}

// TestDeliveryLatenessRecorded pins the lateness histogram: a message on a
// 200 µs link, delivered by its timer, leaves one non-negative sample.
func TestDeliveryLatenessRecorded(t *testing.T) {
	n := NewNetwork(Config{IntraZone: LinkProfile{Latency: 200 * time.Microsecond}})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	got := make(chan struct{})
	b.Subscribe("late", func(Message) { close(got) })
	count, sum := mDeliveryLateness.Count(), mDeliveryLateness.Sum()
	a.Send(2, "late", []byte("x"))
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
	if d := mDeliveryLateness.Count() - count; d < 1 {
		t.Errorf("delivery recorded %d lateness samples, want one", d)
	}
	if late := mDeliveryLateness.Sum() - sum; late < 0 {
		t.Errorf("lateness summed to %v s, want ≥ 0", late)
	}
}

func TestBandwidthSerializesSender(t *testing.T) {
	// 1 MB/s uplink: ten 10 KB messages take ~100 ms to serialize.
	n := NewNetwork(Config{
		IntraZone: LinkProfile{BytesPerSec: 1 << 20},
	})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	var wg sync.WaitGroup
	wg.Add(10)
	b.Subscribe("bulk", func(Message) { wg.Done() })
	payload := make([]byte, 10<<10)
	start := time.Now()
	for i := 0; i < 10; i++ {
		a.Send(2, "bulk", payload)
	}
	waitDone(t, &wg)
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("10 x 10KB at 1MB/s finished in %v, want >= ~95ms", elapsed)
	}
}

func TestDropRate(t *testing.T) {
	n := NewNetwork(Config{DropRate: 1.0, Seed: 1})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	var count atomic.Int32
	b.Subscribe("x", func(Message) { count.Add(1) })
	for i := 0; i < 20; i++ {
		a.Send(2, "x", nil)
	}
	time.Sleep(50 * time.Millisecond)
	if count.Load() != 0 {
		t.Errorf("drop-rate 1.0 still delivered %d messages", count.Load())
	}
}

func TestCrashStopsTraffic(t *testing.T) {
	n := NewNetwork(Config{})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	var received atomic.Int32
	b.Subscribe("x", func(Message) { received.Add(1) })
	b.Crash()
	a.Send(2, "x", nil)
	time.Sleep(20 * time.Millisecond)
	if received.Load() != 0 {
		t.Error("crashed node processed a message")
	}
	if !b.Crashed() {
		t.Error("Crashed() = false after Crash()")
	}
	// Crashed node cannot send either.
	a.Subscribe("y", func(Message) { received.Add(1) })
	b.Send(1, "y", nil)
	time.Sleep(20 * time.Millisecond)
	if received.Load() != 0 {
		t.Error("crashed node sent a message")
	}
}

func TestCloseDetaches(t *testing.T) {
	n := NewNetwork(Config{})
	a, _ := n.Join(1, 0)
	a.Close()
	if len(n.Peers()) != 0 {
		t.Error("closed endpoint still listed")
	}
	// Rejoining the same id works.
	if _, err := n.Join(1, 0); err != nil {
		t.Errorf("rejoin after close: %v", err)
	}
}

func TestMessageDataIsolated(t *testing.T) {
	// Mutating the sender's buffer after Send or Broadcast must not affect
	// delivery: the one copy a broadcast makes is the network's, not the
	// sender's.
	n := NewNetwork(Config{IntraZone: LinkProfile{Latency: 5 * time.Millisecond}})
	a, _ := n.Join(1, 0)
	got := make(chan []byte, 3)
	for id := NodeID(2); id <= 4; id++ {
		peer, _ := n.Join(id, 0)
		peer.Subscribe("x", func(m Message) { got <- m.Data })
	}
	buf := []byte("original")
	a.Send(2, "x", buf)
	copy(buf, "mutated!")
	expectDeliveries(t, got, 1, "original")

	buf = []byte("original")
	a.Broadcast("x", buf)
	copy(buf, "mutated!")
	expectDeliveries(t, got, 3, "original")
}

// expectDeliveries waits for n payloads on got, each equal to want.
func expectDeliveries(t *testing.T, got <-chan []byte, n int, want string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case data := <-got:
			if string(data) != want {
				t.Errorf("delivered %q, want isolation from sender mutation", data)
			}
		case <-time.After(time.Second):
			t.Fatalf("%d of %d deliveries arrived", i, n)
		}
	}
}

func TestBroadcastCorruptionIsPrivate(t *testing.T) {
	// Each corrupted delivery flips a byte of its own copy: neither the
	// sender's buffer nor another peer's delivery sees the flip.
	n := NewNetwork(Config{})
	n.SetTopicCorruptRate("x", 1)
	a, _ := n.Join(1, 0)
	got := make(chan []byte, 3)
	for id := NodeID(2); id <= 4; id++ {
		peer, _ := n.Join(id, 0)
		peer.Subscribe("x", func(m Message) { got <- m.Data })
	}
	original := []byte("a payload long enough to corrupt")
	buf := append([]byte(nil), original...)
	a.Broadcast("x", buf)
	for i := 0; i < 3; i++ {
		select {
		case data := <-got:
			diff := 0
			for j := range data {
				if data[j] != original[j] {
					diff++
				}
			}
			if len(data) != len(original) || diff != 1 {
				t.Errorf("delivery differs from the original in %d bytes, want exactly 1", diff)
			}
		case <-time.After(time.Second):
			t.Fatalf("%d of 3 deliveries arrived", i)
		}
	}
	if string(buf) != string(original) {
		t.Errorf("sender's buffer changed to %q", buf)
	}
	if c := n.Stats().Corrupted; c != 3 {
		t.Errorf("Corrupted = %d, want 3", c)
	}
}
