// Package queue implements the message broker of the WebGPU 2.0
// architecture (§VI-A): topics of durable messages that worker nodes
// *poll* (rather than having jobs pushed at them), requirement tags so a
// lab needing MPI or multiple GPUs is only handed to a capable worker, a
// per-topic wake signal so an idle poller blocks instead of sleeping,
// visibility timeouts with redelivery for at-least-once semantics, a
// dead-letter queue for poison messages, and mirroring of the unacked
// messages to a standby broker in another availability zone.
package queue

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

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

type pending struct {
	msg       *Message
	visibleAt time.Time // zero = visible now
}

type inflight struct {
	msg      *Message
	deadline time.Time
	consumer string
}

// Broker is a topic-based message broker.
type Broker struct {
	mu          sync.Mutex
	closed      bool
	nextID      int
	topics      map[string][]*pending
	wake        map[string]chan struct{} // topic -> channel Wait handed out, closed by wakeLocked
	inflight    map[string]*inflight     // delivery tag -> message
	dead        []*Message
	maxAttempts int
	clock       func() time.Time
	faults      *faultinject.Registry

	mirror *Broker // standby in another availability zone

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
		topics:      map[string][]*pending{},
		wake:        map[string]chan struct{}{},
		inflight:    map[string]*inflight{},
		maxAttempts: DefaultMaxAttempts,
		clock:       time.Now,
	}
}

// SetClock overrides the time source (tests).
func (b *Broker) SetClock(clock func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clock = clock
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

// Mirror attaches a standby broker that holds a copy of every message
// this broker has not yet seen acked (§VI-A: the broker "can be
// replicated across Amazon availability zones — offering resiliency
// against faults"): a publish is copied under the same message ID, an ack
// drops the copy, so a failover serves exactly the unfinished work. The
// standby must not be published to while this broker is live — its own
// IDs continue after the last mirrored one.
func (b *Broker) Mirror(standby *Broker) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mirror = standby
}

// Close shuts the broker down and releases every waiter, so a consumer
// blocked on a dying primary sees ErrClosed from its next Poll at once.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for topic := range b.wake {
		b.wakeLocked(topic)
	}
}

// Wait returns a channel that is closed the next time a message becomes
// visible on the topic — a publish, a mirrored publish on a standby, a
// nack, an expired lease found by a later call, a dead-letter redrive —
// or the broker closes. A consumer takes it *before* Poll and blocks on it
// only after that Poll came back empty: an event between the two closes
// the channel it already holds, so no wake-up is lost. Every waiter on the
// topic is released, whatever its capabilities; one that finds nothing it
// may lease waits again. On a closed broker the channel is already closed.
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
	b.topics[msg.Topic] = append(b.topics[msg.Topic], &pending{msg: msg})
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
		Enqueued: b.clock()}
	b.enqueueLocked(msg)
	b.stats.published++
	if b.mirror != nil {
		// Lock order is primary then mirror, here and in Ack, never the
		// reverse. Payload and tags are never written after publish, so
		// the copy shares them.
		b.mirror.mirrorPut(b.nextID, &Message{ID: id, Topic: topic, Payload: cp, Tags: msg.Tags,
			Enqueued: msg.Enqueued})
	}
	return id, nil
}

// mirrorPut enqueues the primary's message seq on this standby under the
// primary's ID, and moves the standby's own ID counter past it.
func (b *Broker) mirrorPut(seq int, msg *Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if b.nextID < seq {
		b.nextID = seq
	}
	b.enqueueLocked(msg)
	b.stats.published++
}

// mirrorDrop forgets a mirrored message the primary saw acked. A copy
// that a consumer of this standby has already leased (an ack that raced a
// failover) is left to that consumer.
func (b *Broker) mirrorDrop(topic, id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	queue := b.topics[topic]
	for i, p := range queue {
		if p.msg.ID == id {
			b.topics[topic] = slices.Delete(queue, i, i+1)
			b.stats.acked++
			return
		}
	}
}

// Delivery is a leased message; the consumer must Ack or Nack it before
// the visibility deadline or it is redelivered.
type Delivery struct {
	Msg *Message
	Tag string
	b   *Broker
}

// Poll attempts to lease the oldest visible message on the topic whose
// tags are all satisfied by the consumer's capability set. It returns
// (nil, false, nil) when nothing matches — the §VI-A semantics of "worker
// nodes poll the queue, accepting a job if the node meets the job
// requirements".
func (b *Broker) Poll(topic, consumer string, caps map[string]bool, visibility time.Duration) (*Delivery, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, false, ErrClosed
	}
	if err := b.faults.Fire(faultinject.PointQueuePoll); err != nil {
		return nil, false, fmt.Errorf("queue: poll: %w", err)
	}
	now := b.clock()
	b.expireLocked(now)
	queue := b.topics[topic]
	for i, p := range queue {
		if p.visibleAt.After(now) {
			continue
		}
		if !tagsSatisfied(p.msg.Tags, caps) {
			continue
		}
		// Lease it, removing it in place: a topic's slice is reachable
		// only through b.topics under b.mu, so nobody holds the old view.
		b.topics[topic] = slices.Delete(queue, i, i+1)
		p.msg.Attempts++
		tag := fmt.Sprintf("%s#%d", p.msg.ID, p.msg.Attempts)
		b.inflight[tag] = &inflight{msg: p.msg, deadline: now.Add(visibility), consumer: consumer}
		b.stats.delivered++
		if p.msg.Attempts > 1 {
			b.stats.redelivered++
		}
		return &Delivery{Msg: p.msg, Tag: tag, b: b}, true, nil
	}
	return nil, false, nil
}

// MetaPrefix marks informational tags (e.g. a job's trace ID) that ride
// on a message without constraining which consumer may lease it. Tags
// with a meta prefix are skipped during capability matching — otherwise a
// unique-per-job trace tag would make every job undeliverable.
const MetaPrefix = "trace:"

// MetaAttemptPrefix marks the informational tag carrying the delivery
// attempt that produced a result message, so consumers of TopicResults
// can recognise a redelivered job's duplicate result and dedup it.
const MetaAttemptPrefix = "attempt:"

// metaPrefixes lists every informational prefix exempt from capability
// matching.
var metaPrefixes = [...]string{MetaPrefix, MetaAttemptPrefix}

func isMetaTag(tag string) bool {
	for _, p := range metaPrefixes {
		if strings.HasPrefix(tag, p) {
			return true
		}
	}
	return false
}

// MetaTrace builds the informational tag carrying a trace ID.
func MetaTrace(id string) string { return MetaPrefix + id }

// TraceTag extracts the trace ID from a message's tags, or "".
func TraceTag(tags []string) string {
	for _, t := range tags {
		if strings.HasPrefix(t, MetaPrefix) {
			return strings.TrimPrefix(t, MetaPrefix)
		}
	}
	return ""
}

// MetaAttempt builds the informational tag carrying a delivery attempt.
func MetaAttempt(n int) string { return fmt.Sprintf("%s%d", MetaAttemptPrefix, n) }

// AttemptTag extracts the delivery attempt from a message's tags, or 0.
func AttemptTag(tags []string) int {
	for _, t := range tags {
		if strings.HasPrefix(t, MetaAttemptPrefix) {
			var n int
			if _, err := fmt.Sscanf(strings.TrimPrefix(t, MetaAttemptPrefix), "%d", &n); err == nil {
				return n
			}
		}
	}
	return 0
}

func tagsSatisfied(tags []string, caps map[string]bool) bool {
	for _, t := range tags {
		if isMetaTag(t) {
			continue
		}
		if !caps[t] {
			return false
		}
	}
	return true
}

// expireLocked returns timed-out in-flight messages to their topics (or
// the dead-letter queue).
func (b *Broker) expireLocked(now time.Time) {
	for tag, inf := range b.inflight {
		if now.Before(inf.deadline) {
			continue
		}
		delete(b.inflight, tag)
		b.requeueLocked(inf.msg)
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
	inf, ok := b.inflight[d.Tag]
	if !ok {
		return fmt.Errorf("%w: %s (already acked, nacked, or expired)", ErrUnknown, d.Tag)
	}
	delete(b.inflight, d.Tag)
	b.stats.acked++
	if b.mirror != nil {
		b.mirror.mirrorDrop(inf.msg.Topic, inf.msg.ID)
	}
	return nil
}

// Nack returns the message to its topic immediately (or dead-letters it
// after too many attempts).
func (d *Delivery) Nack() error {
	b := d.b
	b.mu.Lock()
	defer b.mu.Unlock()
	inf, ok := b.inflight[d.Tag]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknown, d.Tag)
	}
	delete(b.inflight, d.Tag)
	b.stats.nacked++
	b.requeueLocked(inf.msg)
	return nil
}

// Depth reports visible plus leased messages on a topic.
func (b *Broker) Depth(topic string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expireLocked(b.clock())
	n := len(b.topics[topic])
	for _, inf := range b.inflight {
		if inf.msg.Topic == topic {
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
	b.expireLocked(b.clock())
	return len(b.topics[topic])
}

// OldestAge returns how long the oldest visible message has waited, or
// zero when the topic is empty.
func (b *Broker) OldestAge(topic string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.clock()
	b.expireLocked(now)
	var oldest time.Time
	for _, p := range b.topics[topic] {
		if oldest.IsZero() || p.msg.Enqueued.Before(oldest) {
			oldest = p.msg.Enqueued
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
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
	b.expireLocked(b.clock())
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
