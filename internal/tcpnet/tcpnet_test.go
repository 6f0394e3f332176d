package tcpnet

import (
	"fmt"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/ringpaxos"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

func TestSendReceive(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: 42}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b.Inbox():
		if env.From != a.Addr() {
			t.Fatalf("from = %q, want %q", env.From, a.Addr())
		}
		q := env.Msg.(*msg.TrimQuery)
		if q.Seq != 42 {
			t.Fatalf("seq = %d", q.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestFIFOAndBidirectional(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")
	defer b.Close()
	const n = 200
	for i := uint64(0); i < n; i++ {
		if err := a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		select {
		case env := <-b.Inbox():
			if got := env.Msg.(*msg.TrimQuery).Seq; got != i {
				t.Fatalf("out of order: %d want %d", got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout at %d", i)
		}
	}
	// Reply direction reuses b's own outbound connection.
	if err := b.Send(a.Addr(), &msg.TrimCmd{Ring: 1, UpTo: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-a.Inbox():
		if env.Msg.(*msg.TrimCmd).UpTo != 7 {
			t.Fatal("bad reply")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout on reply")
	}
}

func TestLargeMessage(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")
	defer b.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(b.Addr(), &msg.Proposal{Ring: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b.Inbox():
		got := env.Msg.(*msg.Proposal).Payload
		if len(got) != len(payload) || got[12345] != payload[12345] {
			t.Fatal("payload corrupted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
}

func TestSendToDeadPeerDoesNotBlock(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			_ = a.Send("127.0.0.1:1", &msg.TrimQuery{Ring: 1, Seq: uint64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("send to dead peer blocked")
	}
}

func TestSendAfterClose(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	_ = a.Close()
	if err := a.Send("127.0.0.1:1", &msg.TrimQuery{}); err != transport.ErrClosed {
		t.Fatalf("err = %v", err)
	}
	_ = a.Close() // idempotent
}

// TestRingPaxosOverTCP runs a full 3-node Ring Paxos ring over real
// sockets: the protocol code is identical to the simulator runs.
func TestRingPaxosOverTCP(t *testing.T) {
	eps := make([]*Endpoint, 3)
	for i := range eps {
		ep, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	peers := make([]ringpaxos.Peer, 3)
	for i := range peers {
		peers[i] = ringpaxos.Peer{
			ID:    msg.NodeID(i + 1),
			Addr:  eps[i].Addr(),
			Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
		}
	}
	var nodes []*multiring.Node
	for i := range peers {
		node := multiring.NewNode(peers[i].ID, eps[i])
		if _, err := node.Join(ringpaxos.Config{
			Ring:         1,
			Peers:        peers,
			Coordinator:  peers[0].ID,
			Log:          storage.NewLog(storage.InMemory),
			BatchDelay:   time.Millisecond,
			RetryTimeout: 100 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	proc2, _ := nodes[2].Process(1)
	learner := multiring.NewLearner(1, proc2)
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	learner.Start()
	defer learner.Stop()

	const total = 25
	for k := 0; k < total; k++ {
		if err := nodes[k%3].Multicast(1, []byte(fmt.Sprintf("tcp-%02d", k))); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	deadline := time.After(20 * time.Second)
	for len(got) < total {
		select {
		case d := <-learner.Deliveries():
			if !d.Skip {
				got[string(d.Entry.Data)] = true
			}
		case <-deadline:
			t.Fatalf("delivered %d/%d over TCP", len(got), total)
		}
	}
}
