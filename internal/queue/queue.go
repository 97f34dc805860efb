// Package queue implements the message broker of the WebGPU 2.0
// architecture (§VI-A): topics of durable messages that worker nodes
// *poll* (rather than having jobs pushed at them), requirement tags so a
// lab needing MPI or multiple GPUs is only handed to a capable worker, a
// per-topic wake signal so an idle poller blocks instead of sleeping,
// visibility timeouts with redelivery for at-least-once semantics (the
// broker expires a lease on its own clock when the deadline passes, as
// SQS does, so a blocked poller needs no timer of its own), and a
// dead-letter queue for poison messages.
package queue

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"webgpu/internal/clock"
	"webgpu/internal/faultinject"
)

// Errors.
var (
	ErrClosed  = errors.New("queue: broker closed")
	ErrUnknown = errors.New("queue: unknown delivery")
)

// Message is one queued job or result.
type Message struct {
	ID       string
	Topic    string
	Payload  []byte
	Tags     []string // requirements: every tag must be in the consumer's capability set
	Enqueued time.Time
	Attempts int
}

// DefaultMaxAttempts moves a message to the dead-letter queue after this
// many failed deliveries.
const DefaultMaxAttempts = 5

// lease is one delivery of an in-flight message. n numbers every lease
// the broker grants, so a delivery whose lease expired (and whose message
// was leased again, even after a redrive reset its attempts) can never
// settle the lease that replaced it.
type lease struct {
	n        uint64
	deadline time.Time
}

// Broker is a topic-based message broker.
type Broker struct {
	mu          sync.Mutex
	closed      bool
	nextID      int
	nextLease   uint64
	topics      map[string][]*Message
	wake        map[string]chan struct{} // topic -> channel Wait handed out, closed by wakeLocked
	inflight    map[*Message]lease
	dead        []*Message
	maxAttempts int
	clock       clock.Clock
	faults      *faultinject.Registry
	// expiry is the deadline expireLoop's timer is armed for, zero while
	// no loop runs on an open broker; rearm tells the loop of an earlier
	// one, or of Close, which waits on expiring for the loop to exit.
	expiry   time.Time
	rearm    chan struct{}
	expiring sync.WaitGroup

	stats struct {
		published   int64
		delivered   int64
		acked       int64
		nacked      int64
		redelivered int64
		deadLetters int64
	}
}

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	return &Broker{
		topics:      map[string][]*Message{},
		wake:        map[string]chan struct{}{},
		inflight:    map[*Message]lease{},
		maxAttempts: DefaultMaxAttempts,
		clock:       clock.Real,
		rearm:       make(chan struct{}, 1),
	}
}

// SetClock overrides the time source (tests).
func (b *Broker) SetClock(c clock.Clock) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clock = c
}

// SetFaults attaches a fault-injection registry; nil (the default)
// disables injection. Latency faults stall the broker the way a
// congested real broker would.
func (b *Broker) SetFaults(r *faultinject.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.faults = r
}

// SetMaxAttempts adjusts the dead-letter threshold.
func (b *Broker) SetMaxAttempts(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maxAttempts = n
}

// Close shuts the broker down, stops its expiry timer and releases every
// waiter, so a consumer blocked on it sees ErrClosed from its next Poll at
// once.
func (b *Broker) Close() {
	b.mu.Lock()
	b.closed = true
	b.signalRearm()
	for topic := range b.wake {
		b.wakeLocked(topic)
	}
	b.mu.Unlock()
	b.expiring.Wait()
}

// Wait returns a channel that is closed the next time a message becomes
// visible on the topic — a publish, a nack, an expired lease, a
// dead-letter redrive — or the broker closes. A consumer
// takes it *before* Poll and blocks on it only after that Poll came back
// empty: an event between the two closes the channel it already holds,
// so no wake-up is lost. Every waiter on the topic is released, whatever
// its capabilities; one that finds nothing it may lease waits again. On a
// closed broker the channel is already closed.
func (b *Broker) Wait(topic string) <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch, ok := b.wake[topic]
	if !ok {
		ch = make(chan struct{})
		if b.closed {
			close(ch)
		} else {
			b.wake[topic] = ch
		}
	}
	return ch
}

// enqueueLocked makes msg visible on its topic and releases the topic's
// waiters: the one place a message enters b.topics.
func (b *Broker) enqueueLocked(msg *Message) {
	b.topics[msg.Topic] = append(b.topics[msg.Topic], msg)
	b.wakeLocked(msg.Topic)
}

// wakeLocked releases the topic's waiters. The channel is made by Wait,
// so a topic nobody waits on costs a failed map lookup per message.
func (b *Broker) wakeLocked(topic string) {
	if ch, ok := b.wake[topic]; ok {
		close(ch)
		delete(b.wake, topic)
	}
}

// Publish enqueues a payload on a topic with requirement tags, returning
// the message ID.
func (b *Broker) Publish(topic string, payload []byte, tags ...string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return "", ErrClosed
	}
	if err := b.faults.Fire(faultinject.PointQueuePublish); err != nil {
		return "", fmt.Errorf("queue: publish: %w", err)
	}
	b.nextID++
	id := fmt.Sprintf("msg-%08d", b.nextID)
	cp := make([]byte, len(payload))
	copy(cp, payload)
	msg := &Message{ID: id, Topic: topic, Payload: cp, Tags: append([]string(nil), tags...),
		Enqueued: b.clock.Now()}
	b.enqueueLocked(msg)
	b.stats.published++
	return id, nil
}

// Delivery is a leased message; the consumer must Ack or Nack it before
// the visibility deadline or it is redelivered.
type Delivery struct {
	Msg   *Message
	lease uint64
	b     *Broker
}

// Poll attempts to lease the oldest message on the topic whose tags are
// all in the consumer's capability set. It returns (nil, false, nil) when
// nothing matches — the §VI-A semantics of "worker nodes poll the queue,
// accepting a job if the node meets the job requirements". The broker
// does not read consumer; it names the poller at the call site.
func (b *Broker) Poll(topic, consumer string, caps map[string]bool, visibility time.Duration) (*Delivery, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, false, ErrClosed
	}
	if err := b.faults.Fire(faultinject.PointQueuePoll); err != nil {
		return nil, false, fmt.Errorf("queue: poll: %w", err)
	}
	now := b.clock.Now()
	b.expireLocked(now)
	queue := b.topics[topic]
	for i, msg := range queue {
		if !tagsSatisfied(msg.Tags, caps) {
			continue
		}
		// Lease it, removing it in place: a topic's slice is reachable
		// only through b.topics under b.mu, so nobody holds the old view.
		b.topics[topic] = slices.Delete(queue, i, i+1)
		msg.Attempts++
		b.nextLease++
		deadline := now.Add(visibility)
		b.inflight[msg] = lease{n: b.nextLease, deadline: deadline}
		switch {
		case b.expiry.IsZero():
			b.expiry = deadline
			b.expiring.Add(1)
			go b.expireLoop()
		case deadline.Before(b.expiry):
			b.expiry = deadline
			b.signalRearm()
		}
		b.stats.delivered++
		if msg.Attempts > 1 {
			b.stats.redelivered++
		}
		return &Delivery{Msg: msg, lease: b.nextLease, b: b}, true, nil
	}
	return nil, false, nil
}

func tagsSatisfied(tags []string, caps map[string]bool) bool {
	for _, t := range tags {
		if !caps[t] {
			return false
		}
	}
	return true
}

// expireLocked returns timed-out in-flight messages to their topics (or
// the dead-letter queue) and reports the earliest deadline still in flight,
// zero when nothing is.
func (b *Broker) expireLocked(now time.Time) (next time.Time) {
	for msg, l := range b.inflight {
		if now.Before(l.deadline) {
			if next.IsZero() || l.deadline.Before(next) {
				next = l.deadline
			}
			continue
		}
		delete(b.inflight, msg)
		b.requeueLocked(msg)
	}
	return next
}

// expireLoop runs while a lease is in flight: it sleeps on one timer of
// the broker's clock until b.expiry and then expires what is due, which
// releases the topic's waiters. A lease settled early is not unarmed; the
// loop finds nothing due, arms for the earliest remaining lease, and ends
// when none is left or the broker closes.
func (b *Broker) expireLoop() {
	defer b.expiring.Done()
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed && !b.expiry.IsZero() {
		t := b.clock.NewTimer(b.expiry.Sub(b.clock.Now()))
		b.mu.Unlock()
		select {
		case <-t.C:
		case <-b.rearm:
		}
		t.Stop()
		b.mu.Lock()
		if now := b.clock.Now(); !now.Before(b.expiry) {
			b.expiry = b.expireLocked(now)
		}
	}
}

// signalRearm wakes expireLoop without blocking; one pending signal is
// enough, since the loop rereads b.expiry and b.closed.
func (b *Broker) signalRearm() {
	select {
	case b.rearm <- struct{}{}:
	default:
	}
}

func (b *Broker) requeueLocked(msg *Message) {
	if msg.Attempts >= b.maxAttempts {
		b.dead = append(b.dead, msg)
		b.stats.deadLetters++
		return
	}
	b.enqueueLocked(msg)
}

// Ack completes a delivery; the message is gone. A failed Ack (network
// partition, injected fault) leaves the lease in place: it expires and
// the message is redelivered — the at-least-once contract.
func (d *Delivery) Ack() error {
	b := d.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.faults.Fire(faultinject.PointQueueAck); err != nil {
		return fmt.Errorf("queue: ack: %w", err)
	}
	if !d.leasedLocked() {
		return fmt.Errorf("%w: %s (already acked, nacked, or expired)", ErrUnknown, d.Msg.ID)
	}
	delete(b.inflight, d.Msg)
	b.stats.acked++
	return nil
}

// Nack returns the message to its topic immediately (or dead-letters it
// after too many attempts).
func (d *Delivery) Nack() error {
	b := d.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if !d.leasedLocked() {
		return fmt.Errorf("%w: %s", ErrUnknown, d.Msg.ID)
	}
	delete(b.inflight, d.Msg)
	b.stats.nacked++
	b.requeueLocked(d.Msg)
	return nil
}

// leasedLocked reports whether d's lease is still the message's current
// one.
func (d *Delivery) leasedLocked() bool {
	l, ok := d.b.inflight[d.Msg]
	return ok && l.n == d.lease
}

// Depth reports visible plus leased messages on a topic.
func (b *Broker) Depth(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expireLocked(b.clock.Now())
	n := len(b.topics[topic])
	for msg := range b.inflight {
		if msg.Topic == topic {
			n++
		}
	}
	return n
}

// Backlog reports only the visible (not leased) messages on a topic; the
// autoscaler watches this.
func (b *Broker) Backlog(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expireLocked(b.clock.Now())
	return len(b.topics[topic])
}

// RedriveDeadLetters moves dead-lettered messages back onto their topics
// with a reset attempt count (the SQS redrive an operator runs after
// fixing the fault that poisoned them). It returns how many messages were
// redriven.
func (b *Broker) RedriveDeadLetters() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.dead)
	for _, msg := range b.dead {
		msg.Attempts = 0
		b.enqueueLocked(msg)
	}
	b.dead = nil
	return n
}

// DeadLetters returns a copy of the dead-letter queue.
func (b *Broker) DeadLetters() []*Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*Message, len(b.dead))
	copy(out, b.dead)
	return out
}

// Stats is a snapshot of broker counters.
type Stats struct {
	Published, Delivered, Acked, Nacked, Redelivered, DeadLetters int64
	Inflight                                                      int
}

// Unaccounted checks the broker's conservation invariant: every published
// message is in exactly one of four states — acked (gone), dead-lettered,
// leased in flight, or visible on a topic. It returns
//
//	published - acked - |dead| - |inflight| - |visible across all topics|
//
// which is zero on a healthy broker; a positive value means messages were
// lost, a negative one means a message was double-counted. The chaos soak
// harness asserts this stays zero under fault injection.
func (b *Broker) Unaccounted() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expireLocked(b.clock.Now())
	visible := 0
	for _, q := range b.topics {
		visible += len(q)
	}
	return b.stats.published - b.stats.acked -
		int64(len(b.dead)) - int64(len(b.inflight)) - int64(visible)
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		Published:   b.stats.published,
		Delivered:   b.stats.delivered,
		Acked:       b.stats.acked,
		Nacked:      b.stats.nacked,
		Redelivered: b.stats.redelivered,
		DeadLetters: b.stats.deadLetters,
		Inflight:    len(b.inflight),
	}
}
