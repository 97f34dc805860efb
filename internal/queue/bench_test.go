package queue

import (
	"runtime"
	"testing"
	"time"
)

func BenchmarkPublishPollAck(b *testing.B) {
	br := NewBroker()
	caps := map[string]bool{"cuda": true}
	payload := make([]byte, 512)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.Publish("jobs", payload); err != nil {
			b.Fatal(err)
		}
		d, ok, err := br.Poll("jobs", "w", caps, time.Minute)
		if err != nil || !ok {
			b.Fatal("poll failed")
		}
		if err := d.Ack(); err != nil {
			b.Fatal(err)
		}
	}
}

// backloggedBroker returns a broker holding backlog jobs a {"cuda"}
// consumer cannot take; leaseOne publishes one it can and leases it from
// behind them.
func backloggedBroker(tb testing.TB, backlog int) *Broker {
	br := NewBroker()
	for i := 0; i < backlog; i++ {
		if _, err := br.Publish("jobs", nil, "mpi"); err != nil {
			tb.Fatal(err)
		}
	}
	return br
}

func leaseOne(tb testing.TB, br *Broker) {
	if _, err := br.Publish("jobs", nil); err != nil {
		tb.Fatal(err)
	}
	d, ok, err := br.Poll("jobs", "w", map[string]bool{"cuda": true}, time.Minute)
	if err != nil || !ok {
		tb.Fatal("poll failed")
	}
	_ = d.Ack()
}

func BenchmarkPollSkipsTaggedBacklog(b *testing.B) {
	br := backloggedBroker(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaseOne(b, br)
	}
}

// TestLeaseAllocationIndependentOfBacklog: a lease removes its message in
// place, so it allocates the same behind 1 000 waiting messages as behind
// 10 (a copy of the topic queue would be 8 kB a lease).
func TestLeaseAllocationIndependentOfBacklog(t *testing.T) {
	bytesPerLease := func(backlog int) uint64 {
		br := backloggedBroker(t, backlog)
		leaseOne(t, br) // the topic slice reaches its steady capacity
		const leases = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < leases; i++ {
			leaseOne(t, br)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / leases
	}
	small, large := bytesPerLease(10), bytesPerLease(1000)
	if large > small+256 {
		t.Fatalf("a lease allocates %d B behind 1000 messages, %d B behind 10", large, small)
	}
}

func BenchmarkDepthWithInflight(b *testing.B) {
	br := NewBroker()
	caps := map[string]bool{}
	for i := 0; i < 128; i++ {
		_, _ = br.Publish("jobs", nil)
	}
	for i := 0; i < 64; i++ {
		_, _, _ = br.Poll("jobs", "w", caps, time.Hour)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := br.Depth("jobs"); got != 128 {
			b.Fatalf("depth = %d", got)
		}
	}
}
