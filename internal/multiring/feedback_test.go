package multiring

import (
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/ringpaxos"
)

// feedbackSource is a DecisionSource that pushes its decisions and takes
// learner feedback the way *ringpaxos.Process does, recording every
// RequestSkip bound.
type feedbackSource struct {
	ring msg.RingID
	push func(ringpaxos.Decided)
	asks chan msg.Instance
}

func newFeedbackSource(ring msg.RingID) *feedbackSource {
	return &feedbackSource{ring: ring, asks: make(chan msg.Instance, 16)}
}

func (f *feedbackSource) Ring() msg.RingID                    { return f.ring }
func (f *feedbackSource) Decisions() <-chan ringpaxos.Decided { return nil }
func (f *feedbackSource) SetSink(fn func(ringpaxos.Decided))  { f.push = fn }
func (f *feedbackSource) RequestSkip(to msg.Instance)         { f.asks <- to }

// decide pushes one decided instance into the learner, as
// ringpaxos.Process.advance does.
func (f *feedbackSource) decide(d ringpaxos.Decided) { f.push(d) }

func value(ring msg.RingID, inst msg.Instance, data string) ringpaxos.Decided {
	return ringpaxos.Decided{Ring: ring, Instance: inst,
		Value: msg.Value{Batch: []msg.Entry{{Proposer: 1, Seq: uint64(inst), Data: []byte(data)}}}}
}

// TestLearnerFeedbackRequestsSkip: a merge waiting on an idle ring while
// another ring holds a decided but undeliverable command asks the idle
// ring's coordinator for exactly the skip that frees it — also when that
// command is decided after the wait began — and once the skip is decided
// the command is delivered in merge order.
func TestLearnerFeedbackRequestsSkip(t *testing.T) {
	a, b := newFeedbackSource(1), newFeedbackSource(2)
	l := NewLearner(1, a, b)
	l.Start()
	defer l.Stop()

	next := func() Delivery {
		t.Helper()
		select {
		case d := <-l.Deliveries():
			return d
		case <-time.After(2 * time.Second):
			t.Fatal("no delivery")
			return Delivery{}
		}
	}
	ask := func(src *feedbackSource, want msg.Instance) {
		t.Helper()
		select {
		case got := <-src.asks:
			if got != want {
				t.Fatalf("ring %d asked to skip to %d, want %d", src.ring, got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("ring %d was never asked to skip", src.ring)
		}
	}

	// A's first command is delivered at once; the merge then waits on B
	// with nothing else decided anywhere: no request.
	a.decide(value(1, 1, "a1"))
	if d := next(); string(d.Entry.Data) != "a1" {
		t.Fatalf("got %+v, want a1", d)
	}
	select {
	case to := <-b.asks:
		t.Fatalf("idle merge asked ring 2 to skip to %d", to)
	case <-time.After(50 * time.Millisecond):
	}

	// A decides a second command while the merge waits on B: B must
	// supply instance 1 before it, so B is asked for a skip to 2.
	a.decide(value(1, 2, "a2"))
	ask(b, 2)
	b.decide(ringpaxos.Decided{Ring: 2, Instance: 1, Value: msg.Value{Skip: true, SkipTo: 2}})
	if d := next(); !d.Skip || d.Ring != 2 {
		t.Fatalf("got %+v, want ring 2's skip", d)
	}
	if d := next(); string(d.Entry.Data) != "a2" {
		t.Fatalf("got %+v, want a2", d)
	}

	// B runs ahead with a 10-instance skip; the merge consumes it and
	// waits on A, which must supply 9 more instances (3..11) before
	// B's range is used up: A is asked for a skip to 12.
	b.decide(ringpaxos.Decided{Ring: 2, Instance: 2, Value: msg.Value{Skip: true, SkipTo: 12}})
	ask(a, 12)
}

// TestLearnerFeedbackSkipsUnconsumedRing: when the merge first waits, a
// ring it has not consumed from yet has no frontier, so the instances it
// already decided must not drive a skip request — a recovered learner's
// rings start mid-stream, and their decided count says nothing about the
// merge's lag. Once the merge has consumed from that ring, its backlog
// counts.
func TestLearnerFeedbackSkipsUnconsumedRing(t *testing.T) {
	a, b, c := newFeedbackSource(1), newFeedbackSource(2), newFeedbackSource(3)
	l := NewLearner(1, a, b, c)
	a.decide(value(1, 1, "a1"))
	c.decide(value(3, 1, "c1"))
	c.decide(value(3, 2, "c2"))
	l.Start()
	defer l.Stop()

	next := func(want string) {
		t.Helper()
		select {
		case d := <-l.Deliveries():
			if string(d.Entry.Data) != want {
				t.Fatalf("got %+v, want %s", d, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no delivery, want %s", want)
		}
	}
	next("a1")
	// The merge waits on B while C holds two decided instances it has
	// never consumed from: no request.
	select {
	case to := <-b.asks:
		t.Fatalf("merge asked ring 2 to skip to %d before consuming ring 3", to)
	case <-time.After(50 * time.Millisecond):
	}

	// After one turn over C, C is one instance ahead of its frontier, so
	// the wait on A asks A for a skip to 3.
	b.decide(value(2, 1, "b1"))
	next("b1")
	next("c1")
	select {
	case to := <-a.asks:
		if to != 3 {
			t.Fatalf("ring 1 asked to skip to %d, want 3", to)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ring 1 was never asked to skip")
	}
	select {
	case to := <-b.asks:
		t.Fatalf("ring 2 asked to skip to %d", to)
	default:
	}
}
