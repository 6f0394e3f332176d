package multiring

import (
	"fmt"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/ringpaxos"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// fakeSource is a replayed decision stream for one ring.
type fakeSource struct {
	ring msg.RingID
	ch   chan ringpaxos.Decided
}

func newFakeSource(ring msg.RingID, cap int) *fakeSource {
	return &fakeSource{ring: ring, ch: make(chan ringpaxos.Decided, cap)}
}

func (f *fakeSource) Ring() msg.RingID                    { return f.ring }
func (f *fakeSource) Decisions() <-chan ringpaxos.Decided { return f.ch }

func (f *fakeSource) decide(inst msg.Instance, payload string) {
	f.ch <- ringpaxos.Decided{Ring: f.ring, Instance: inst, Value: msg.Value{
		Batch: []msg.Entry{{Proposer: 1, Seq: uint64(inst), Data: []byte(payload)}},
	}}
}

func (f *fakeSource) skip(inst, to msg.Instance) {
	f.ch <- ringpaxos.Decided{Ring: f.ring, Instance: inst, Value: msg.Value{Skip: true, SkipTo: to}}
}

// feed describes one scripted decision, replayable into several sources.
type feed struct {
	ring    msg.RingID
	inst    msg.Instance
	payload string
	skipTo  msg.Instance // > 0 for a skip decision
}

func replay(t *testing.T, script []feed, rings ...msg.RingID) map[msg.RingID]*fakeSource {
	t.Helper()
	srcs := make(map[msg.RingID]*fakeSource, len(rings))
	for _, r := range rings {
		srcs[r] = newFakeSource(r, len(script)+1)
	}
	for _, f := range script {
		if f.skipTo > 0 {
			srcs[f.ring].skip(f.inst, f.skipTo)
		} else {
			srcs[f.ring].decide(f.inst, f.payload)
		}
	}
	return srcs
}

func collect(t *testing.T, l *Learner, n int) []string {
	t.Helper()
	var out []string
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case d := <-l.Deliveries():
			if d.Skip {
				out = append(out, fmt.Sprintf("r%d:skip@%d-%d", d.Ring, d.Instance, d.SkipTo))
			} else {
				out = append(out, fmt.Sprintf("r%d:%s", d.Ring, d.Entry.Data))
			}
		case <-deadline:
			t.Fatalf("timed out after %d deliveries: %v", len(out), out)
		}
	}
	return out
}

// collectData gathers n non-skip deliveries (rate-leveling skips filtered).
func collectData(t *testing.T, l *Learner, n int) []string {
	t.Helper()
	var out []string
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case d := <-l.Deliveries():
			if d.Skip {
				continue
			}
			out = append(out, fmt.Sprintf("r%d:%s", d.Ring, d.Entry.Data))
		case <-deadline:
			t.Fatalf("timed out after %d data deliveries: %v", len(out), out)
		}
	}
	return out
}

// script3 is the shared scenario: rings 1 and 2 active from the start,
// ring 3 spliced in at activation {Ring 1, Instance 3}. Ring 1's instance 3
// is covered by a skip range (2-4), exercising skip-aligned activation.
// The skip's over-consumption carries across rounds, so ring 1 sits out
// two turns after it; the merged order is
// a1 b1 skip b2 b3 c1 b4 c2 a5 (9 deliveries).
func script3() []feed {
	return []feed{
		{ring: 1, inst: 1, payload: "a1"},
		{ring: 1, inst: 2, skipTo: 5}, // skip 2,3,4: frontier jumps over the trigger
		{ring: 1, inst: 5, payload: "a5"},
		{ring: 2, inst: 1, payload: "b1"},
		{ring: 2, inst: 2, payload: "b2"},
		{ring: 2, inst: 3, payload: "b3"},
		{ring: 2, inst: 4, payload: "b4"},
		{ring: 3, inst: 1, payload: "c1"},
		{ring: 3, inst: 2, payload: "c2"},
	}
}

// TestLearnerSubscribeDeterministicAcrossLearners replays identical
// decision streams into two learners. One subscribes the new ring before
// starting, the other mid-flight; both use the same activation point, so
// both must deliver the exact same global sequence.
func TestLearnerSubscribeDeterministicAcrossLearners(t *testing.T) {
	const total = 9
	act := Activation{Ring: 1, Instance: 3}

	srcA := replay(t, script3(), 1, 2, 3)
	la := NewLearner(1, srcA[1], srcA[2])
	la.Subscribe(srcA[3], act)
	la.Start()
	defer la.Stop()
	seqA := collect(t, la, total)

	// Learner B subscribes while the merge is already running. Per the
	// Activation contract the trigger instance must still be in the merge's
	// future at request time, so only a prefix (below the trigger) is fed
	// before subscribing; the rest — including ring 1's skip that covers
	// the trigger instance — arrives afterwards.
	script := script3()
	srcB := replay(t, script[:1], 1, 2, 3) // just {ring 1, inst 1}
	lb := NewLearner(1, srcB[1], srcB[2])
	lb.Start()
	defer lb.Stop()
	first := collect(t, lb, 1)
	lb.Subscribe(srcB[3], act)
	for _, f := range script[1:] {
		if f.skipTo > 0 {
			srcB[f.ring].skip(f.inst, f.skipTo)
		} else {
			srcB[f.ring].decide(f.inst, f.payload)
		}
	}
	seqB := append(first, collect(t, lb, total-1)...)

	if fmt.Sprint(seqA) != fmt.Sprint(seqB) {
		t.Fatalf("merge diverged:\n A: %v\n B: %v", seqA, seqB)
	}
	// The new ring must not deliver before the activation point.
	for i, s := range seqA {
		if s == "r3:c1" {
			if i < 2 {
				t.Fatalf("ring 3 activated too early: %v", seqA)
			}
			break
		}
	}
}

// TestLearnerUnsubscribeDeterministic splices a ring out at an agreed
// activation point on two learners and checks both deliver the same
// sequence, with no ring-2 deliveries after the splice.
func TestLearnerUnsubscribeDeterministic(t *testing.T) {
	script := []feed{
		{ring: 1, inst: 1, payload: "a1"},
		{ring: 1, inst: 2, payload: "a2"},
		{ring: 1, inst: 3, payload: "a3"},
		{ring: 1, inst: 4, payload: "a4"},
		{ring: 2, inst: 1, payload: "b1"},
		{ring: 2, inst: 2, payload: "b2"},
	}
	act := Activation{Ring: 2, Instance: 2}
	const total = 6 // a1 b1 a2 b2 a3 a4

	run := func() []string {
		srcs := replay(t, script, 1, 2)
		l := NewLearner(1, srcs[1], srcs[2])
		l.Unsubscribe(2, act)
		l.Start()
		defer l.Stop()
		return collect(t, l, total)
	}
	s1, s2 := run(), run()
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatalf("merge diverged:\n 1: %v\n 2: %v", s1, s2)
	}
	want := "[r1:a1 r2:b1 r1:a2 r2:b2 r1:a3 r1:a4]"
	if fmt.Sprint(s1) != want {
		t.Fatalf("sequence = %v, want %s", s1, want)
	}
}

// TestLearnerStartsEmpty checks a learner created with no sources blocks
// until a subscription arrives, then delivers.
func TestLearnerStartsEmpty(t *testing.T) {
	l := NewLearner(1)
	l.Start()
	defer l.Stop()
	select {
	case d := <-l.Deliveries():
		t.Fatalf("unexpected delivery %+v", d)
	case <-time.After(20 * time.Millisecond):
	}
	src := newFakeSource(7, 4)
	src.decide(1, "x1")
	l.Subscribe(src, Activation{})
	got := collect(t, l, 1)
	if got[0] != "r7:x1" {
		t.Fatalf("delivery = %v", got)
	}
	if rings := l.Rings(); len(rings) != 1 || rings[0] != 7 {
		t.Fatalf("rings = %v", rings)
	}
}

// TestNodeSubscribeUnsubscribeRuntime exercises the end-to-end runtime
// path: three running nodes subscribe to a second ring, multicast on it,
// deliver through spliced learners, then unsubscribe again.
func TestNodeSubscribeUnsubscribeRuntime(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	defer net.Close()

	const n = 3
	mkPeers := func() []ringpaxos.Peer {
		peers := make([]ringpaxos.Peer, n)
		for i := range peers {
			peers[i] = ringpaxos.Peer{
				ID:    msg.NodeID(i + 1),
				Addr:  transport.Addr(fmt.Sprintf("dyn-%d", i)),
				Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
			}
		}
		return peers
	}
	peers := mkPeers()

	ringCfg := func(ring msg.RingID) ringpaxos.Config {
		return ringpaxos.Config{
			Ring: ring, Peers: peers, Coordinator: peers[0].ID,
			Log:          storage.NewLog(storage.InMemory),
			RetryTimeout: 50 * time.Millisecond,
			// Rate leveling: an idle ring still completes merge turns, which
			// is what lets an unsubscription reach its round boundary.
			SkipInterval: 2 * time.Millisecond,
			SkipRate:     500,
		}
	}

	var nodes []*Node
	var learners []*Learner
	for i := 0; i < n; i++ {
		node := NewNode(peers[i].ID, net.Endpoint(peers[i].Addr))
		p1, err := node.Join(ringCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		node.Start()
		l := NewLearner(1, p1)
		l.Start()
		nodes = append(nodes, node)
		learners = append(learners, l)
		defer node.Stop()
		defer l.Stop()
	}

	if err := nodes[0].Multicast(1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	for i := range learners {
		if got := collectData(t, learners[i], 1); got[0] != "r1:pre" {
			t.Fatalf("learner %d pre = %v", i, got)
		}
	}

	// Runtime subscription to a fresh ring on every node.
	for i, node := range nodes {
		p2, err := node.Join(ringCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		learners[i].Subscribe(p2, Activation{})
		if got := len(node.Rings()); got != 2 {
			t.Fatalf("node rings = %d", got)
		}
	}
	if err := nodes[1].Multicast(2, []byte("dyn")); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Multicast(1, []byte("post")); err != nil {
		t.Fatal(err)
	}
	for i := range learners {
		got := collectData(t, learners[i], 2)
		seen := map[string]bool{got[0]: true, got[1]: true}
		if !seen["r1:post"] || !seen["r2:dyn"] {
			t.Fatalf("learner %d post-subscribe = %v", i, got)
		}
	}

	// Runtime unsubscription: every learner splices ring 2 out of its merge
	// first — the ring's skips (driven by its still-running coordinator)
	// keep the merge turning until the splice lands — and only then do the
	// nodes leave the ring.
	for i := range learners {
		learners[i].Unsubscribe(2, Activation{})
	}
	for i := range learners {
		deadline := time.Now().Add(10 * time.Second)
		for len(learners[i].Rings()) != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("learner %d still merging ring 2", i)
			}
			// Drain rate-leveling skips so a full delivery buffer cannot
			// keep the merge from reaching its round boundary.
			select {
			case <-learners[i].Deliveries():
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}
	for _, node := range nodes {
		if err := node.Unsubscribe(2); err != nil {
			t.Fatal(err)
		}
		if err := node.Unsubscribe(2); err == nil {
			t.Fatal("double unsubscribe should fail")
		}
	}
	if err := nodes[2].Multicast(1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	for i := range learners {
		if got := collectData(t, learners[i], 1); got[0] != "r1:after" {
			t.Fatalf("learner %d after-unsubscribe = %v", i, got)
		}
	}
	for _, node := range nodes {
		if _, ok := node.Process(2); ok {
			t.Fatal("ring 2 process still registered")
		}
	}
}
