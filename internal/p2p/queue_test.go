package p2p

import (
	"encoding/binary"
	"sort"
	"sync"
	"testing"
	"time"
)

// hop is one received message: the sender's index and how long after its
// Send call the receiver's handler ran.
type hop struct {
	index uint32
	took  time.Duration
}

// recordHops subscribes to topic on e and reports every message's index (the
// first four payload bytes) and one-hop time, measured from the send instant
// in the next eight, in arrival order.
func recordHops(e *Endpoint, topic string, buffer int) <-chan hop {
	out := make(chan hop, buffer)
	e.Subscribe(topic, func(m Message) {
		sent := time.Unix(0, int64(binary.BigEndian.Uint64(m.Data[4:])))
		out <- hop{index: binary.BigEndian.Uint32(m.Data), took: time.Since(sent)}
	})
	return out
}

// sendIndexed sends message i, stamped with the wall-clock send instant.
func sendIndexed(from *Endpoint, to NodeID, topic string, i uint32) {
	data := binary.BigEndian.AppendUint32(nil, i)
	data = binary.BigEndian.AppendUint64(data, uint64(time.Now().UnixNano()))
	from.Send(to, topic, data)
}

// collectHops waits for n messages on got.
func collectHops(t *testing.T, got <-chan hop, n int) []hop {
	t.Helper()
	out := make([]hop, 0, n)
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case h := <-got:
			out = append(out, h)
		case <-deadline:
			t.Fatalf("%d of %d messages arrived", len(out), n)
		}
	}
	return out
}

// TestDeliveryExactlyOnceUnderRacingWakers: four senders keep the process
// busy enough that a message's timer and the pacer both go for it, and
// every message still reaches its handler exactly once.
func TestDeliveryExactlyOnceUnderRacingWakers(t *testing.T) {
	const senders, each = 4, 500
	n := NewNetwork(Config{IntraZone: LinkProfile{Latency: 200 * time.Microsecond}})
	dst, _ := n.Join(0, 0)
	got := recordHops(dst, "x", senders*each+1)
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		src, _ := n.Join(NodeID(s), 0)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sendIndexed(src, 0, "x", uint32(s*each+i))
				if i%50 == 0 {
					time.Sleep(100 * time.Microsecond) // let the queue drain now and then
				}
			}
		}(s)
	}
	wg.Wait()
	seen := make(map[uint32]int)
	for _, h := range collectHops(t, got, senders*each) {
		seen[h.index]++
	}
	// A fence sent after every message arrived is scheduled behind all of
	// them: once it is handled, a second delivery of any would have been too.
	fence, _ := n.Join(NodeID(senders+1), 0)
	sendIndexed(fence, 0, "x", 0)
	if h := collectHops(t, got, 1)[0]; h.index != 0 {
		seen[h.index]++
		t.Errorf("message %d delivered after the fence", h.index)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("message %d delivered %d times", id, c)
		}
	}
	if len(seen) != senders*each {
		t.Errorf("%d distinct messages delivered, want %d", len(seen), senders*each)
	}
	if s := n.Stats(); s.Delivered != s.Sent {
		t.Errorf("Delivered = %d, Sent = %d: want equal without a duplicate lottery", s.Delivered, s.Sent)
	}
}

// TestNothingDeliveredBeforeItsInstant: no waker hands a message over before
// its link's latency has passed since the send, idle or busy.
func TestNothingDeliveredBeforeItsInstant(t *testing.T) {
	const latency = time.Millisecond
	n := NewNetwork(Config{IntraZone: LinkProfile{Latency: latency}})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	got := recordHops(b, "x", 100)
	for i := 0; i < 100; i++ {
		sendIndexed(a, 2, "x", uint32(i))
		if i%10 == 9 {
			time.Sleep(300 * time.Microsecond)
		}
	}
	for _, h := range collectHops(t, got, 100) {
		if h.took < latency {
			t.Errorf("message %d arrived %v after its send, before the link's %v", h.index, h.took, latency)
		}
	}
}

// TestEqualLatencySendsKeepLinkOrder: messages one link schedules in send
// order arrive in send order, while a second link's traffic keeps both
// wakers busy.
func TestEqualLatencySendsKeepLinkOrder(t *testing.T) {
	const count = 2000
	n := NewNetwork(Config{IntraZone: LinkProfile{Latency: 200 * time.Microsecond}})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	c, _ := n.Join(3, 0)
	d, _ := n.Join(4, 0)
	got := recordHops(b, "x", count)
	d.Subscribe("noise", func(Message) {})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Send(4, "noise", []byte{1})
			}
		}
	}()
	for i := 0; i < count; i++ {
		sendIndexed(a, 2, "x", uint32(i))
	}
	hops := collectHops(t, got, count)
	close(stop)
	wg.Wait()
	for i, h := range hops {
		if h.index != uint32(i) {
			t.Fatalf("arrival %d is message %d: a link reordered equal-latency sends", i, h.index)
		}
	}
}

// TestReorderJitterStillOvertakes: a message held back by reorder jitter is
// overtaken by later sends on its link; the queue's order is by instant, not
// by send.
func TestReorderJitterStillOvertakes(t *testing.T) {
	const count = 100
	n := NewNetwork(Config{
		IntraZone:     LinkProfile{Latency: 200 * time.Microsecond},
		ReorderRate:   0.3,
		ReorderJitter: 2 * time.Millisecond,
		Seed:          5,
	})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	got := recordHops(b, "x", count)
	for i := 0; i < count; i++ {
		sendIndexed(a, 2, "x", uint32(i))
	}
	hops := collectHops(t, got, count)
	if n.Stats().Reordered == 0 {
		t.Fatal("the reorder lottery held nothing back")
	}
	if sort.SliceIsSorted(hops, func(i, j int) bool { return hops[i].index < hops[j].index }) {
		t.Error("every message arrived in send order: no jittered message was overtaken")
	}
}

// TestIdleHopKeepsLinkLatency: on an idle process a 200 µs hop lands within
// half a millisecond at the median. A runtime timer alone lands it at about
// 1.1 ms, rounded up to the netpoller's millisecond.
func TestIdleHopKeepsLinkLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's slowdown is not the link's latency")
	}
	const count = 200
	n := NewNetwork(Config{IntraZone: LinkProfile{Latency: 200 * time.Microsecond}})
	a, _ := n.Join(1, 0)
	b, _ := n.Join(2, 0)
	got := recordHops(b, "x", 1)
	took := make([]time.Duration, 0, count)
	for i := 0; i < count; i++ {
		time.Sleep(time.Millisecond) // the process idles between hops
		sendIndexed(a, 2, "x", uint32(i))
		took = append(took, collectHops(t, got, 1)[0].took)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if p50 := took[count/2]; p50 >= 500*time.Microsecond {
		t.Errorf("idle one-hop p50 %v over a 200µs link, want < 500µs (p10 %v, p90 %v)", p50, took[count/10], took[count*9/10])
	} else {
		t.Logf("idle one-hop p50 %v (p10 %v, p90 %v)", p50, took[count/10], took[count*9/10])
	}
}
