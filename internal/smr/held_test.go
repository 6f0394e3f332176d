package smr

import (
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/transport"
)

// sendRecorder keeps every response sent through it, in send order.
type sendRecorder struct {
	benchNullEndpoint
	sent *[]*msg.Response
}

func (e sendRecorder) Send(_ transport.Addr, m msg.Message) error {
	*e.sent = append(*e.sent, m.(*msg.Response))
	return nil
}

// suppressedReplica is a non-holder replica whose silence window stays
// open for an hour; its lease lasts one second.
func suppressedReplica(sent *[]*msg.Response) *Replica {
	r := NewReplica(ReplicaConfig{
		Node: multiring.NewNode(1, sendRecorder{sent: sent}),
		SM:   benchSM{},
	})
	r.lease = leaseTable{holder: 2, active: true, durMs: 1000}
	r.suppressUntil = leaseClockNow().Add(time.Hour)
	return r
}

func holdSeq(r *Replica, seq uint64) {
	r.mu.Lock()
	r.holdReplyLocked("c", &msg.Response{ClientID: 1, Seq: seq})
	r.mu.Unlock()
}

// heldSeqs lists the queued replies' sequence numbers, oldest first.
func heldSeqs(r *Replica) []uint64 {
	out := make([]uint64, 0, r.held.n)
	for i := range r.held.n {
		out = append(out, r.held.at(i).resp.Seq)
	}
	return out
}

// TestHeldQueue pins the suppression queue: it keeps the newest heldCap
// replies in FIFO order, expires only entries older than one lease
// duration while the gate is closed, and sends every reply in order once
// the gate opens.
func TestHeldQueue(t *testing.T) {
	var sent []*msg.Response
	r := suppressedReplica(&sent)
	for seq := uint64(1); seq <= 3*heldCap; seq++ {
		holdSeq(r, seq)
	}
	got := heldSeqs(r)
	if len(got) != heldCap {
		t.Fatalf("queue holds %d replies, want %d", len(got), heldCap)
	}
	for i, seq := range got {
		if want := uint64(2*heldCap + i + 1); seq != want {
			t.Fatalf("entry %d is seq %d, want %d", i, seq, want)
		}
	}
	for i := range r.held.buf {
		if e := &r.held.buf[i]; e.resp == nil {
			t.Fatalf("slot %d empty in a full queue", i)
		}
	}

	// Back-date the oldest 100 entries beyond one lease duration; the next
	// one sits just inside it.
	now := leaseClockNow()
	for i := range 100 {
		r.held.at(i).at = now.Add(-2 * time.Second)
	}
	r.held.at(100).at = now.Add(-500 * time.Millisecond)
	r.flushHeld()
	if got := heldSeqs(r); len(got) != heldCap-100 || got[0] != 2*heldCap+101 {
		t.Fatalf("expiry left %d entries starting at seq %d, want %d starting at %d",
			len(got), got[0], heldCap-100, 2*heldCap+101)
	}
	if len(sent) != 0 {
		t.Fatalf("closed gate sent %d replies", len(sent))
	}
	if r.held.buf[(r.held.head-1)&(heldCap-1)].resp != nil {
		t.Fatal("an expired slot still references its response")
	}

	r.suppressUntil = time.Time{}
	r.lease.active = false
	r.flushHeld()
	if r.held.n != 0 {
		t.Fatalf("open gate left %d replies held", r.held.n)
	}
	if len(sent) != heldCap-100 {
		t.Fatalf("open gate sent %d replies, want %d", len(sent), heldCap-100)
	}
	for i, resp := range sent {
		if want := uint64(2*heldCap + 101 + i); resp.Seq != want {
			t.Fatalf("send %d is seq %d, want %d", i, resp.Seq, want)
		}
	}
}

// TestHeldQueueAllocationPin: neither a hold at the cap nor a flushHeld
// that expires entries allocates.
func TestHeldQueueAllocationPin(t *testing.T) {
	var sent []*msg.Response
	r := suppressedReplica(&sent)
	resp := &msg.Response{ClientID: 1}
	r.mu.Lock()
	for range heldCap {
		r.holdReplyLocked("c", resp)
	}
	r.mu.Unlock()
	hold := func() {
		r.mu.Lock()
		r.holdReplyLocked("c", resp)
		r.mu.Unlock()
	}
	if a := testing.AllocsPerRun(1000, hold); a != 0 {
		t.Errorf("hold at the cap allocates %.1f times, want 0", a)
	}
	old := leaseClockNow().Add(-time.Hour)
	expire := func() {
		for i := range 4 {
			r.held.at(i).at = old
		}
		r.flushHeld()
		for range 4 {
			hold()
		}
	}
	if a := testing.AllocsPerRun(1000, expire); a != 0 {
		t.Errorf("expiring flushHeld allocates %.1f times, want 0", a)
	}
	if r.held.n != heldCap || len(sent) != 0 {
		t.Fatalf("queue holds %d, sent %d; want %d and 0", r.held.n, len(sent), heldCap)
	}
}

// BenchmarkHoldReplyAtCap is one withheld reply on a non-holder whose
// queue is full, so every hold drops the oldest entry.
func BenchmarkHoldReplyAtCap(b *testing.B) {
	r := newBenchReplica()
	r.lease = leaseTable{holder: 2, active: true, durMs: 1000}
	r.suppressUntil = leaseClockNow().Add(time.Hour)
	resp := &msg.Response{ClientID: 1}
	r.mu.Lock()
	for range heldCap {
		r.holdReplyLocked("c", resp)
	}
	r.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.mu.Lock()
		r.holdReplyLocked("c", resp)
		r.mu.Unlock()
	}
}
