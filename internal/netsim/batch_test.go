package netsim

import (
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// TestCoalescedBurstFIFO pushes a burst larger than DefaultBatchCount
// through coalescing, so it spans several packets: everything must arrive,
// individually and in order, exactly as on the unbatched path.
func TestCoalescedBurstFIFO(t *testing.T) {
	n := New(WithUniformLatency(time.Millisecond))
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	const N = 500
	for i := uint64(0); i < N; i++ {
		if err := a.Send("b", ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < N; i++ {
		select {
		case env := <-b.Inbox():
			if _, ok := env.Msg.(*msg.Batch); ok {
				t.Fatal("batch leaked into the inbox")
			}
			if got := env.Msg.(*msg.TrimQuery).Seq; got != i {
				t.Fatalf("out of order: got %d want %d", got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout at %d", i)
		}
	}
}

// TestCoalescingChargesBatchOnce: on a slow link, a burst of k messages
// coalesced into one packet pays the batch's serialization once, so total
// delivery time stays near k*msgSize/bandwidth regardless of per-packet
// latency cost — and must not exceed the unbatched bound.
func TestCoalescingChargesBatchOnce(t *testing.T) {
	const (
		k       = 20
		payload = 10 * 1024
		bw      = 1 << 20 // 1 MB/s
	)
	n := New(WithUniformLatency(0), WithBandwidth(bw))
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	body := make([]byte, payload)
	start := time.Now()
	for i := 0; i < k; i++ {
		_ = a.Send("b", &msg.Proposal{Ring: 1, Payload: body})
	}
	for i := 0; i < k; i++ {
		<-b.Inbox()
	}
	el := time.Since(start)
	serialized := time.Duration(k*payload) * time.Second / bw
	if el < serialized/2 {
		t.Fatalf("%d x %dB over 1MB/s took %v, want >= %v (bandwidth not charged)",
			k, payload, el, serialized/2)
	}
	if el > 3*serialized {
		t.Fatalf("coalesced burst took %v, want <= %v", el, 3*serialized)
	}
}

// TestCoalescingDisabledMatchesSeedPath exercises the opt-out knob end to
// end.
func TestCoalescingDisabledMatchesSeedPath(t *testing.T) {
	n := New(WithUniformLatency(0), WithBatch(transport.BatchPolicy{Disabled: true}))
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	const N = 100
	for i := uint64(0); i < N; i++ {
		if err := a.Send("b", ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < N; i++ {
		select {
		case env := <-b.Inbox():
			if got := env.Msg.(*msg.TrimQuery).Seq; got != i {
				t.Fatalf("out of order: got %d want %d", got, i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout at %d", i)
		}
	}
}

// TestCoalescerCrashRecoverIncarnation: messages queued to a crashed
// receiver's old incarnation must not reach its recovered replacement, even
// when both sit in the same coalescing queue.
func TestCoalescerCrashRecoverIncarnation(t *testing.T) {
	n := New(WithUniformLatency(0))
	defer n.Close()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	_ = b.Close() // crash b: sends resolve to the dead incarnation
	_ = a.Send("b", ping(1))
	b2 := n.Endpoint("b")
	_ = a.Send("b", ping(2))
	select {
	case env := <-b2.Inbox():
		if env.Msg.(*msg.TrimQuery).Seq != 2 {
			t.Fatal("recovered endpoint got a stale message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout after recovery")
	}
}
