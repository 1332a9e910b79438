package p2p

import (
	"container/heap"
	"sync"
	"time"
)

// deliveryQueue is a network's run-queue of scheduled deliveries: a min-heap
// on the delivery instant, with send order breaking ties, so messages that a
// link schedules for the same instant reach the inbox in the order they were
// sent. It is the network's only reader of time.
//
// Two wakers race for each delivery, and whichever runs first delivers it —
// together with everything else already due, in queue order — and stops the
// other:
//   - the message's own runtime timer, on time while the process is busy;
//   - the pacer, one goroutine per non-empty queue, on time while the process
//     idles. An idle Go process waits for its timers in the netpoller, which
//     rounds any wait below a millisecond up to a whole one; the pacer instead
//     sleeps in the kernel through the last millisecond before the earliest
//     deadline. It exits when the queue drains.
//
// The pacer alone would do on an idle process, but under saturation a
// goroutine returning from a kernel sleep queues for a scheduler slot, and
// the runtime timer does not.
type deliveryQueue struct {
	mu      sync.Mutex
	pending deliveryHeap
	seq     uint64        // send order, the tie-break
	pacing  bool          // a pacer goroutine is running
	kick    chan struct{} // wakes a pacer waiting on a later head
	fire    func()        // the runtime timers' callback, allocated once
}

// delivery is one scheduled message.
type delivery struct {
	at    time.Time
	seq   uint64
	dst   *Endpoint
	msg   Message
	timer *time.Timer // nil when the delivery was due as it was scheduled
}

func newDeliveryQueue() *deliveryQueue {
	q := &deliveryQueue{kick: make(chan struct{}, 1)}
	q.fire = func() {
		q.mu.Lock()
		q.deliverDue()
		q.mu.Unlock()
	}
	return q
}

// now is the network's clock.
func (q *deliveryQueue) now() time.Time { return time.Now() }

// schedule queues msg for delivery to dst at the given instant. A delivery
// already due goes out before schedule returns, behind anything due before it.
func (q *deliveryQueue) schedule(dst *Endpoint, msg Message, at time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	d := &delivery{at: at, seq: q.seq, dst: dst, msg: msg}
	heap.Push(&q.pending, d)
	delay := at.Sub(q.now())
	switch {
	case delay <= 0:
		q.deliverDue()
		return
	case !q.pacing:
		q.pacing = true
		go q.pace()
	case q.pending[0] == d:
		select {
		case q.kick <- struct{}{}:
		default:
		}
	}
	d.timer = time.AfterFunc(delay, q.fire)
}

// deliverDue hands every due delivery to its endpoint's inbox, in queue
// order. The caller holds q.mu: the inbox sends happen under it, which is
// what keeps two racing wakers from reordering a link.
func (q *deliveryQueue) deliverDue() {
	now := q.now()
	for len(q.pending) > 0 && !q.pending[0].at.After(now) {
		d := heap.Pop(&q.pending).(*delivery)
		if d.timer != nil {
			d.timer.Stop()
		}
		mDeliveryLateness.ObserveDuration(now.Sub(d.at))
		d.dst.enqueue(d.msg)
	}
}

// pace is the idle-process waker. It waits on a runtime timer while the
// earliest deadline is more than a millisecond away (a new, earlier head
// kicks it), sleeps in the kernel through the rest, and delivers what is
// due. It exits, clearing pacing, once the queue is empty.
func (q *deliveryQueue) pace() {
	for {
		q.mu.Lock()
		q.deliverDue()
		if len(q.pending) == 0 {
			q.pacing = false
			q.mu.Unlock()
			return
		}
		wait := q.pending[0].at.Sub(q.now())
		q.mu.Unlock()
		switch {
		case wait > time.Millisecond:
			t := time.NewTimer(wait - time.Millisecond)
			select {
			case <-t.C:
			case <-q.kick:
			}
			t.Stop()
		case wait > 0:
			sleepPrecise(wait)
		}
	}
}

// deliveryHeap orders deliveries by instant, then by send order.
type deliveryHeap []*delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)   { *h = append(*h, x.(*delivery)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	d := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return d
}
