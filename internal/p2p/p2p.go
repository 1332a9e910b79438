// Package p2p simulates the consortium's node-to-node network in process.
//
// Experiments in the paper run on real clusters (same-VPC nodes, and a
// two-zone Shanghai/Beijing deployment over the public network); this
// simulator reproduces the properties those deployments expose to the
// consensus layer: per-link propagation latency, per-sender transmission
// (bandwidth) serialization, zone topology, and fault injection (message
// drop — global, per-link or per-topic — node crash/recovery, named
// partitions, duplication and bounded reordering). Delivery order between
// different links is not guaranteed, exactly as on a real network.
//
// Every way the network can lose a message is counted, so tests can assert
// what the fabric actually did to the protocol under test (see Stats).
package p2p

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a network participant.
type NodeID uint32

// Message is one datagram between nodes.
type Message struct {
	From  NodeID
	Topic string
	Data  []byte
}

// Handler consumes inbound messages. Handlers run on the endpoint's dispatch
// goroutine; they must not block for long.
type Handler func(Message)

// LinkProfile describes one direction of connectivity.
type LinkProfile struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// BytesPerSec bounds sender throughput on this link class; 0 = infinite.
	BytesPerSec float64
}

// Config shapes the network.
type Config struct {
	// IntraZone applies between nodes in the same zone.
	IntraZone LinkProfile
	// CrossZone applies between nodes in different zones (the paper's
	// Shanghai–Beijing public-network links).
	CrossZone LinkProfile
	// DropRate is the probability an individual message is lost.
	DropRate float64
	// DuplicateRate is the probability a message is delivered twice.
	DuplicateRate float64
	// ReorderRate is the probability a message is held back by up to
	// ReorderJitter, letting later sends overtake it.
	ReorderRate float64
	// ReorderJitter bounds the extra delay of reordered messages
	// (default 1ms when ReorderRate > 0).
	ReorderJitter time.Duration
	// Seed makes drop/duplicate/reorder decisions reproducible.
	Seed int64
	// InboxSize bounds each endpoint's receive queue; overflow drops
	// (receiver back-pressure). Default 4096.
	InboxSize int
}

// Stats counts what the network did to traffic. No drop is silent: every
// lost message increments exactly one *Drops counter.
type Stats struct {
	// Sent counts messages accepted from senders (after drop lotteries).
	Sent uint64
	// Delivered counts messages handed to a live endpoint's handlers.
	Delivered uint64
	// RateDrops counts losses from the global DropRate lottery.
	RateDrops uint64
	// LinkDrops counts losses from per-link drop rates.
	LinkDrops uint64
	// TopicDrops counts losses from per-topic drop rates.
	TopicDrops uint64
	// PartitionDrops counts messages blocked by an active partition.
	PartitionDrops uint64
	// CrashDrops counts messages dropped because the sender or receiver
	// was crashed.
	CrashDrops uint64
	// OverflowDrops counts inbox-overflow (back-pressure) drops.
	OverflowDrops uint64
	// Duplicates counts extra deliveries injected by DuplicateRate.
	Duplicates uint64
	// Reordered counts messages that were held back by ReorderJitter.
	Reordered uint64
	// Corrupted counts messages whose payload was bit-flipped in flight by a
	// per-topic corruption rate (delivered, but damaged).
	Corrupted uint64
}

// counters is the atomic backing store for Stats.
type counters struct {
	sent, delivered                                  atomic.Uint64
	rateDrops, linkDrops, topicDrops, partitionDrops atomic.Uint64
	crashDrops, overflowDrops                        atomic.Uint64
	duplicates, reordered, corrupted                 atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Sent:           c.sent.Load(),
		Delivered:      c.delivered.Load(),
		RateDrops:      c.rateDrops.Load(),
		LinkDrops:      c.linkDrops.Load(),
		TopicDrops:     c.topicDrops.Load(),
		PartitionDrops: c.partitionDrops.Load(),
		CrashDrops:     c.crashDrops.Load(),
		OverflowDrops:  c.overflowDrops.Load(),
		Duplicates:     c.duplicates.Load(),
		Reordered:      c.reordered.Load(),
		Corrupted:      c.corrupted.Load(),
	}
}

// Network is the simulated fabric.
type Network struct {
	cfg   Config
	mu    sync.Mutex
	nodes map[NodeID]*Endpoint
	rng   *rand.Rand
	// partition maps node → group index while a partition is active; nodes
	// absent from every group share the implicit group -1. nil = healed.
	partition    map[NodeID]int
	linkDrop     map[[2]NodeID]float64
	topicDrop    map[string]float64
	topicCorrupt map[string]float64
	stats        counters
}

// NewNetwork creates a network with the given shape. A zero Config yields
// an ideal network (no latency, no loss, infinite bandwidth).
func NewNetwork(cfg Config) *Network {
	if cfg.InboxSize == 0 {
		cfg.InboxSize = 4096
	}
	if cfg.ReorderRate > 0 && cfg.ReorderJitter == 0 {
		cfg.ReorderJitter = time.Millisecond
	}
	return &Network{
		cfg:          cfg,
		nodes:        make(map[NodeID]*Endpoint),
		rng:          rand.New(rand.NewSource(cfg.Seed + 1)),
		linkDrop:     make(map[[2]NodeID]float64),
		topicDrop:    make(map[string]float64),
		topicCorrupt: make(map[string]float64),
	}
}

// Stats returns a snapshot of the network's traffic counters.
func (n *Network) Stats() Stats { return n.stats.snapshot() }

// Partition splits the network into named groups: messages flow only
// between nodes of the same group. Nodes not listed in any group form one
// implicit extra group. A second call replaces the previous partition.
func (n *Network) Partition(groups [][]NodeID) {
	p := make(map[NodeID]int)
	for g, ids := range groups {
		for _, id := range ids {
			p[id] = g
		}
	}
	n.mu.Lock()
	n.partition = p
	n.mu.Unlock()
}

// Heal removes any active partition.
func (n *Network) Heal() {
	n.mu.Lock()
	n.partition = nil
	n.mu.Unlock()
}

// SetLinkDropRate sets the drop probability for the directed link from →
// to (on top of the global DropRate). Rate 0 removes the override.
func (n *Network) SetLinkDropRate(from, to NodeID, rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate == 0 {
		delete(n.linkDrop, [2]NodeID{from, to})
		return
	}
	n.linkDrop[[2]NodeID{from, to}] = rate
}

// SetTopicDropRate sets the drop probability for one topic (on top of the
// global DropRate). Rate 0 removes the override.
func (n *Network) SetTopicDropRate(topic string, rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate == 0 {
		delete(n.topicDrop, topic)
		return
	}
	n.topicDrop[topic] = rate
}

// SetTopicCorruptRate sets the probability that a message on topic is
// delivered with a bit-flipped payload — the adversarial-peer / bad-wire
// case integrity checks above the fabric must catch. Rate 0 removes the
// override.
func (n *Network) SetTopicCorruptRate(topic string, rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate == 0 {
		delete(n.topicCorrupt, topic)
		return
	}
	n.topicCorrupt[topic] = rate
}

// partitioned reports whether an active partition separates from and to.
// Caller holds n.mu.
func (n *Network) partitioned(from, to NodeID) bool {
	if n.partition == nil {
		return false
	}
	gf, okf := n.partition[from]
	if !okf {
		gf = -1
	}
	gt, okt := n.partition[to]
	if !okt {
		gt = -1
	}
	return gf != gt
}

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	id   NodeID
	zone int
	net  *Network

	mu        sync.Mutex
	handlers  map[string][]Handler
	busyUntil time.Time // sender-side transmission serialization
	crashed   bool

	overflowDrops atomic.Uint64
	crashDrops    atomic.Uint64

	inbox     chan Message
	done      chan struct{}
	exited    chan struct{} // closed when the dispatch loop has returned
	closeOnce sync.Once
}

// ErrDuplicateNode reports a NodeID joined twice.
var ErrDuplicateNode = errors.New("p2p: node id already joined")

// Join attaches a node in the given zone and starts its dispatch loop.
func (n *Network) Join(id NodeID, zone int) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[id]; dup {
		return nil, ErrDuplicateNode
	}
	e := &Endpoint{
		id:       id,
		zone:     zone,
		net:      n,
		handlers: make(map[string][]Handler),
		inbox:    make(chan Message, n.cfg.InboxSize),
		done:     make(chan struct{}),
		exited:   make(chan struct{}),
	}
	n.nodes[id] = e
	go e.dispatch()
	return e, nil
}

// ID returns the endpoint's node id.
func (e *Endpoint) ID() NodeID { return e.id }

// Subscribe registers a handler for a topic.
func (e *Endpoint) Subscribe(topic string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[topic] = append(e.handlers[topic], h)
}

// Crash makes the node drop all traffic, in and out (fail-stop).
func (e *Endpoint) Crash() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crashed = true
}

// Recover brings a crashed node back: traffic flows again, but everything
// sent while it was down is gone (the protocol above must resynchronize).
func (e *Endpoint) Recover() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crashed = false
}

// Crashed reports fail-stop state.
func (e *Endpoint) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// OverflowDrops reports how many inbound messages this endpoint dropped to
// back-pressure (inbox overflow).
func (e *Endpoint) OverflowDrops() uint64 { return e.overflowDrops.Load() }

// CrashDrops reports how many messages this endpoint discarded while
// crashed (inbound) or refused to send (outbound).
func (e *Endpoint) CrashDrops() uint64 { return e.crashDrops.Load() }

func (e *Endpoint) dispatch() {
	defer close(e.exited)
	for {
		select {
		case <-e.done:
			return
		case msg := <-e.inbox:
			e.mu.Lock()
			crashed := e.crashed
			hs := append([]Handler(nil), e.handlers[msg.Topic]...)
			e.mu.Unlock()
			if crashed {
				e.crashDrops.Add(1)
				e.net.stats.crashDrops.Add(1)
				mDropCrash.Inc()
				continue
			}
			e.net.stats.delivered.Add(1)
			mDelivered.Inc()
			for _, h := range hs {
				h(msg)
			}
		}
	}
}

// Close detaches the endpoint and waits for a handler in progress to return.
// Closing twice is a no-op; a handler must not call it.
func (e *Endpoint) Close() {
	e.closeOnce.Do(func() {
		e.net.mu.Lock()
		delete(e.net.nodes, e.id)
		e.net.mu.Unlock()
		close(e.done)
	})
	<-e.exited
}

// profileFor picks the link class between two endpoints.
func (n *Network) profileFor(from, to *Endpoint) LinkProfile {
	if from.zone == to.zone {
		return n.cfg.IntraZone
	}
	return n.cfg.CrossZone
}

// Send transmits data to a single peer. Unknown peers and crashed senders
// silently drop (like UDP); the caller's protocol provides any reliability.
// The peer receives a copy, so the sender may reuse data at once.
func (e *Endpoint) Send(to NodeID, topic string, data []byte) {
	e.send(to, topic, append([]byte(nil), data...))
}

// send transmits data, which the network owns from here on: deliveries share
// it read-only, and one with injected corruption flips a byte of its own copy.
func (e *Endpoint) send(to NodeID, topic string, data []byte) {
	net := e.net
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		e.crashDrops.Add(1)
		net.stats.crashDrops.Add(1)
		mDropCrash.Inc()
		return
	}
	e.mu.Unlock()

	net.mu.Lock()
	dst, ok := net.nodes[to]
	if !ok {
		net.mu.Unlock()
		return
	}
	if net.partitioned(e.id, to) {
		net.mu.Unlock()
		net.stats.partitionDrops.Add(1)
		mDropPartition.Inc()
		return
	}
	if r, hit := net.topicDrop[topic]; hit && net.rng.Float64() < r {
		net.mu.Unlock()
		net.stats.topicDrops.Add(1)
		mDropTopic.Inc()
		return
	}
	if r, hit := net.linkDrop[[2]NodeID{e.id, to}]; hit && net.rng.Float64() < r {
		net.mu.Unlock()
		net.stats.linkDrops.Add(1)
		mDropLink.Inc()
		return
	}
	if net.cfg.DropRate > 0 && net.rng.Float64() < net.cfg.DropRate {
		net.mu.Unlock()
		net.stats.rateDrops.Add(1)
		mDropRate.Inc()
		return
	}
	duplicate := net.cfg.DuplicateRate > 0 && net.rng.Float64() < net.cfg.DuplicateRate
	corruptAt := -1
	if r, hit := net.topicCorrupt[topic]; hit && len(data) > 0 && net.rng.Float64() < r {
		corruptAt = net.rng.Intn(len(data))
	}
	var jitter time.Duration
	if net.cfg.ReorderRate > 0 && net.rng.Float64() < net.cfg.ReorderRate {
		jitter = time.Duration(net.rng.Int63n(int64(net.cfg.ReorderJitter)) + 1)
		net.stats.reordered.Add(1)
		mReordered.Inc()
	}
	net.mu.Unlock()
	net.stats.sent.Add(1)
	mSent.Inc()

	e.mu.Lock()
	profile := net.profileFor(e, dst)
	// Transmission delay: the sender's NIC serializes outgoing bytes.
	now := time.Now()
	start := e.busyUntil
	if start.Before(now) {
		start = now
	}
	var tx time.Duration
	if profile.BytesPerSec > 0 {
		tx = time.Duration(float64(len(data)) / profile.BytesPerSec * float64(time.Second))
	}
	e.busyUntil = start.Add(tx)
	deliverAt := e.busyUntil.Add(profile.Latency)
	e.mu.Unlock()

	msg := Message{From: e.id, Topic: topic, Data: data}
	if corruptAt >= 0 {
		msg.Data = append([]byte(nil), data...)
		msg.Data[corruptAt] ^= 0xFF
		net.stats.corrupted.Add(1)
		mCorrupted.Inc()
	}
	dst.deliverAt(msg, deliverAt.Add(jitter))
	if duplicate {
		net.stats.duplicates.Add(1)
		mDuplicates.Inc()
		dst.deliverAt(msg, deliverAt.Add(jitter+50*time.Microsecond))
	}
}

// deliverAt schedules msg for delivery at the given instant, and records how
// late the enqueue ran against it.
func (dst *Endpoint) deliverAt(msg Message, at time.Time) {
	delay := time.Until(at)
	if delay <= 0 {
		mDeliveryLateness.ObserveDuration(-delay)
		dst.enqueue(msg)
		return
	}
	time.AfterFunc(delay, func() {
		mDeliveryLateness.ObserveSince(at)
		dst.enqueue(msg)
	})
}

func (dst *Endpoint) enqueue(msg Message) {
	select {
	case dst.inbox <- msg:
	default:
		// Inbox overflow models receiver back-pressure: drop, visibly.
		dst.overflowDrops.Add(1)
		dst.net.stats.overflowDrops.Add(1)
		mDropOverflow.Inc()
	}
}

// Broadcast sends to every other node. It copies data once, and every peer
// receives that one copy, read-only.
func (e *Endpoint) Broadcast(topic string, data []byte) {
	e.net.mu.Lock()
	ids := make([]NodeID, 0, len(e.net.nodes))
	for id := range e.net.nodes {
		if id != e.id {
			ids = append(ids, id)
		}
	}
	e.net.mu.Unlock()
	data = append([]byte(nil), data...)
	for _, id := range ids {
		e.send(id, topic, data)
	}
}

// Peers lists currently joined node ids (including self).
func (n *Network) Peers() []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	return out
}
