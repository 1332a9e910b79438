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
//     waits on an alarm armed at the earliest deadline, a timerfd that the
//     netpoller reports to the microsecond, and holds no processor or thread
//     while it waits. It exits when the queue drains.
//
// The pacer alone would do on an idle process, but under saturation the
// runtime polls the netpoller only when a processor runs dry (or every 10 ms),
// while it checks its timers on every scheduling pass.
type deliveryQueue struct {
	mu      sync.Mutex
	pending deliveryHeap
	seq     uint64 // send order, the tie-break
	alarm   *alarm // the running pacer's wait; nil while no pacer runs
	fire    func() // the runtime timers' callback, allocated once
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
	q := &deliveryQueue{}
	q.fire = func() {
		q.mu.Lock()
		q.deliverDue()
		q.mu.Unlock()
	}
	return q
}

// now is the network's clock. With the per-message timers and the pacer's
// alarm, it is all the queue knows of time, so a virtual clock (ROADMAP item
// 4(b)) replaces the three. An alarm (alarm_linux.go, alarm_other.go) comes
// from openAlarm; set arms it to go off d from now, replacing the last
// setting; wait returns once it has gone off, or early, and the pacer then
// re-reads the clock; close releases it.
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
	if delay <= 0 {
		q.deliverDue()
		return
	}
	switch {
	case q.alarm == nil:
		q.startPacer()
	case q.pending[0] == d:
		q.alarm.set(delay)
	}
	d.timer = time.AfterFunc(delay, q.fire)
}

// spareAlarms holds a few alarms of ended pacing episodes, process-wide, for
// the next episodes to reuse: opening and closing a timerfd costs five
// syscalls, and a network under load starts thousands of episodes a second.
// The capacity bounds the descriptors kept while every queue is idle; a
// process runs one network at a time, or a few in tests.
var spareAlarms = make(chan *alarm, 4)

// startPacer starts a pacing episode on a spare or a new alarm; the pacer
// arms it. Without an alarm (no descriptor left) the runtime timers deliver
// alone, and the next schedule tries again. The caller holds q.mu.
func (q *deliveryQueue) startPacer() {
	var a *alarm
	select {
	case a = <-spareAlarms:
	default:
		var err error
		if a, err = openAlarm(); err != nil {
			return
		}
	}
	q.alarm = a
	go q.pace(a)
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

// pace is the idle-process waker. It delivers what is due, arms its alarm at
// the earliest remaining deadline (schedule re-arms it for a new, earlier
// head) and waits on it. Once the queue is empty it ends the episode: it
// clears q.alarm and hands the alarm on to a later episode, or releases it.
// A spare may still be armed; the next episode re-arms it before its wait.
func (q *deliveryQueue) pace(a *alarm) {
	for {
		q.mu.Lock()
		q.deliverDue()
		if len(q.pending) == 0 {
			q.alarm = nil
			q.mu.Unlock()
			select {
			case spareAlarms <- a:
			default:
				a.close()
			}
			return
		}
		a.set(q.pending[0].at.Sub(q.now()))
		q.mu.Unlock()
		a.wait()
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
