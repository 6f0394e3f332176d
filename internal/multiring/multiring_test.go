package multiring

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/ringpaxos"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// cluster builds nNodes nodes that are all members (proposer+acceptor+
// learner) of every ring in rings, over one simulated network.
type cluster struct {
	t     *testing.T
	net   *netsim.Network
	nodes []*Node
}

func ringPeers(rings []msg.RingID, nNodes int) map[msg.RingID][]ringpaxos.Peer {
	out := make(map[msg.RingID][]ringpaxos.Peer)
	for _, r := range rings {
		peers := make([]ringpaxos.Peer, nNodes)
		for i := 0; i < nNodes; i++ {
			peers[i] = ringpaxos.Peer{
				ID:    msg.NodeID(i + 1),
				Addr:  transport.Addr(fmt.Sprintf("node-%d", i)),
				Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
			}
		}
		out[r] = peers
	}
	return out
}

func newCluster(t *testing.T, nNodes int, rings []msg.RingID, mutate func(ring msg.RingID, c *ringpaxos.Config)) *cluster {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	c := &cluster{t: t, net: net}
	peers := ringPeers(rings, nNodes)
	for i := 0; i < nNodes; i++ {
		ep := net.Endpoint(transport.Addr(fmt.Sprintf("node-%d", i)))
		node := NewNode(msg.NodeID(i+1), ep)
		for _, r := range rings {
			cfg := ringpaxos.Config{
				Ring:         r,
				Peers:        peers[r],
				Coordinator:  peers[r][0].ID,
				Log:          storage.NewLog(storage.InMemory),
				BatchDelay:   time.Millisecond,
				RetryTimeout: 50 * time.Millisecond,
			}
			if mutate != nil {
				mutate(r, &cfg)
			}
			if _, err := node.Join(cfg); err != nil {
				t.Fatal(err)
			}
		}
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
		net.Close()
	})
	return c
}

// start starts every node; build the learners first.
func (c *cluster) start() {
	for _, n := range c.nodes {
		n.Start()
	}
}

// learnerFor builds a deterministic-merge learner at node i over the given
// rings. Call it before start.
func (c *cluster) learnerFor(i int, m int, rings ...msg.RingID) *Learner {
	c.t.Helper()
	var procs []DecisionSource
	for _, r := range rings {
		p, ok := c.nodes[i].Process(r)
		if !ok {
			c.t.Fatalf("node %d not in ring %d", i, r)
		}
		procs = append(procs, p)
	}
	l := NewLearner(m, procs...)
	l.Start()
	c.t.Cleanup(l.Stop)
	return l
}

// collectPayloads drains a learner until n non-skip deliveries arrive.
func collectPayloads(t *testing.T, l *Learner, n int, timeout time.Duration) []string {
	t.Helper()
	var out []string
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case d := <-l.Deliveries():
			if !d.Skip {
				out = append(out, string(d.Entry.Data))
			}
		case <-deadline:
			t.Fatalf("timeout: got %d/%d deliveries", len(out), n)
		}
	}
	return out
}

func TestMulticastSingleGroup(t *testing.T) {
	c := newCluster(t, 3, []msg.RingID{1}, nil)
	l := c.learnerFor(2, 1, 1)
	c.start()
	if err := c.nodes[0].Multicast(1, []byte("m1")); err != nil {
		t.Fatal(err)
	}
	got := collectPayloads(t, l, 1, 5*time.Second)
	if got[0] != "m1" {
		t.Fatalf("delivered %q", got[0])
	}
}

func TestMulticastUnknownGroupFails(t *testing.T) {
	c := newCluster(t, 3, []msg.RingID{1}, nil)
	if err := c.nodes[0].Multicast(9, []byte("x")); err == nil {
		t.Fatal("multicast to unjoined group should fail")
	}
}

// TestDeterministicMergeIdenticalOrder is the core atomic multicast
// property across groups: two learners subscribed to the same two rings
// must deliver the exact same merged sequence.
func TestDeterministicMergeIdenticalOrder(t *testing.T) {
	c := newCluster(t, 3, []msg.RingID{1, 2}, func(_ msg.RingID, cfg *ringpaxos.Config) {
		cfg.SkipInterval = 5 * time.Millisecond
		cfg.SkipRate = 50
	})
	l1 := c.learnerFor(1, 1, 1, 2)
	l2 := c.learnerFor(2, 1, 1, 2)
	c.start()
	const total = 120
	for k := 0; k < total; k++ {
		ring := msg.RingID(k%2 + 1)
		if err := c.nodes[k%3].Multicast(ring, []byte(fmt.Sprintf("g%d-%03d", ring, k))); err != nil {
			t.Fatal(err)
		}
	}
	got1 := collectPayloads(t, l1, total, 20*time.Second)
	got2 := collectPayloads(t, l2, total, 20*time.Second)
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("merge divergence at %d: %q vs %q", i, got1[i], got2[i])
		}
	}
}

// TestPartialSubscription reproduces Figure 2(c): learners L1, L2 subscribe
// to rings 1 and 2; learner L3 subscribes only to ring 2. L3 must deliver
// exactly the ring-2 messages, in the same relative order L1/L2 deliver
// them.
func TestPartialSubscription(t *testing.T) {
	c := newCluster(t, 3, []msg.RingID{1, 2}, func(_ msg.RingID, cfg *ringpaxos.Config) {
		cfg.SkipInterval = 5 * time.Millisecond
		cfg.SkipRate = 50
	})
	l12 := c.learnerFor(0, 1, 1, 2)
	l2only := c.learnerFor(2, 1, 2)
	c.start()
	const perRing = 30
	for k := 0; k < perRing; k++ {
		if err := c.nodes[0].Multicast(1, []byte(fmt.Sprintf("r1-%03d", k))); err != nil {
			t.Fatal(err)
		}
		if err := c.nodes[1].Multicast(2, []byte(fmt.Sprintf("r2-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	all := collectPayloads(t, l12, 2*perRing, 20*time.Second)
	only2 := collectPayloads(t, l2only, perRing, 20*time.Second)
	// Filter ring-2 messages from the full merge; relative order must match.
	var filtered []string
	for _, v := range all {
		if v[:2] == "r2" {
			filtered = append(filtered, v)
		}
	}
	if len(filtered) != perRing {
		t.Fatalf("ring-2 messages in merge = %d", len(filtered))
	}
	for i := range filtered {
		if filtered[i] != only2[i] {
			t.Fatalf("relative order violation at %d: %q vs %q", i, filtered[i], only2[i])
		}
	}
}

// TestRateLevelingUnblocksIdleRing: with ring 2 idle, the merge of a
// subscriber to both rings must still advance thanks to skip instances.
func TestRateLevelingUnblocksIdleRing(t *testing.T) {
	c := newCluster(t, 3, []msg.RingID{1, 2}, func(_ msg.RingID, cfg *ringpaxos.Config) {
		cfg.SkipInterval = 5 * time.Millisecond
		cfg.SkipRate = 20
	})
	l := c.learnerFor(1, 1, 1, 2)
	c.start()
	const total = 40
	for k := 0; k < total; k++ {
		if err := c.nodes[0].Multicast(1, []byte(fmt.Sprintf("busy-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	got := collectPayloads(t, l, total, 20*time.Second)
	for k := 0; k < total; k++ {
		if got[k] != fmt.Sprintf("busy-%03d", k) {
			t.Fatalf("position %d = %q", k, got[k])
		}
	}
}

// TestMergeStallsWithoutRateLeveling is the negative control (the ablation
// DESIGN.md calls out): without skips, a learner of two rings cannot
// advance past M instances while one ring is idle.
func TestMergeStallsWithoutRateLeveling(t *testing.T) {
	c := newCluster(t, 3, []msg.RingID{1, 2}, nil) // no SkipInterval
	l := c.learnerFor(1, 1, 1, 2)
	c.start()
	for k := 0; k < 10; k++ {
		if err := c.nodes[0].Multicast(1, []byte(fmt.Sprintf("stuck-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	// Ring 1's first instance can be consumed (it is ring 1's turn first),
	// but the merge must then block on idle ring 2.
	var got []string
	timeout := time.After(300 * time.Millisecond)
drain:
	for {
		select {
		case d := <-l.Deliveries():
			if !d.Skip {
				got = append(got, string(d.Entry.Data))
			}
		case <-timeout:
			break drain
		}
	}
	if len(got) >= 10 {
		t.Fatalf("merge delivered all %d messages despite idle ring 2", len(got))
	}
	// Unblock by multicasting to ring 2; everything must now flow.
	for k := 0; k < 10; k++ {
		if err := c.nodes[0].Multicast(2, []byte(fmt.Sprintf("unblock-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	rest := collectPayloads(t, l, 20-len(got), 10*time.Second)
	if len(got)+len(rest) != 20 {
		t.Fatalf("total = %d", len(got)+len(rest))
	}
}

// TestMergeQuotaM verifies the merge consumes M instances per ring per
// turn: with M=2 and batching disabled, deliveries alternate in pairs.
func TestMergeQuotaM(t *testing.T) {
	c := newCluster(t, 3, []msg.RingID{1, 2}, nil)
	l := c.learnerFor(1, 2, 1, 2)
	c.start()
	const perRing = 8
	// Pre-load both rings before reading anything.
	for k := 0; k < perRing; k++ {
		if err := c.nodes[0].Multicast(1, []byte(fmt.Sprintf("a%d", k))); err != nil {
			t.Fatal(err)
		}
		if err := c.nodes[0].Multicast(2, []byte(fmt.Sprintf("b%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	var rings []msg.RingID
	deadline := time.After(10 * time.Second)
	for len(rings) < 2*perRing {
		select {
		case d := <-l.Deliveries():
			if !d.Skip {
				rings = append(rings, d.Ring)
			}
		case <-deadline:
			t.Fatalf("timeout: %d deliveries", len(rings))
		}
	}
	// Expected pattern with M=2: 1,1,2,2,1,1,2,2,...
	for i, r := range rings {
		want := msg.RingID(1)
		if (i/2)%2 == 1 {
			want = 2
		}
		if r != want {
			t.Fatalf("delivery %d from ring %d, want %d (pattern %v)", i, r, want, rings)
		}
	}
}

func TestEndOfInstanceMarks(t *testing.T) {
	c := newCluster(t, 3, []msg.RingID{1}, func(_ msg.RingID, cfg *ringpaxos.Config) {
		cfg.BatchMaxBytes = 1 << 20
		cfg.BatchDelay = 20 * time.Millisecond
	})
	l := c.learnerFor(1, 1, 1)
	c.start()
	for k := 0; k < 5; k++ {
		if err := c.nodes[0].Multicast(1, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	var lastEnd bool
	deadline := time.After(5 * time.Second)
	for seen < 5 {
		select {
		case d := <-l.Deliveries():
			if d.Skip {
				continue
			}
			seen++
			lastEnd = d.EndOfInstance
		case <-deadline:
			t.Fatal("timeout")
		}
	}
	if !lastEnd {
		t.Fatal("final delivery of an instance must carry EndOfInstance")
	}
}

func TestNodeJoinErrors(t *testing.T) {
	net := netsim.New()
	defer net.Close()
	node := NewNode(1, net.Endpoint("n"))
	peers := []ringpaxos.Peer{{ID: 1, Addr: "n", Roles: ringpaxos.RoleAcceptor | ringpaxos.RoleLearner}}
	cfg := ringpaxos.Config{Ring: 1, Peers: peers, Coordinator: 1, Log: storage.NewLog(storage.InMemory)}
	if _, err := node.Join(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Join(cfg); err == nil {
		t.Fatal("duplicate join should fail")
	}
	node.Start()
	// A node's rings are fixed once it starts.
	cfg.Ring = 2
	if _, err := node.Join(cfg); err == nil {
		t.Fatal("join after start should fail")
	}
	if rings := node.Rings(); len(rings) != 1 || rings[0] != 1 {
		t.Fatalf("rings after refused join = %v", rings)
	}
	node.Stop()
	cfg.Ring = 3
	if _, err := node.Join(cfg); err == nil {
		t.Fatal("join after stop should fail")
	}
}

func TestLearnerNoSources(t *testing.T) {
	l := NewLearner(1)
	l.Start()
	done := make(chan struct{})
	go func() {
		l.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("learner with no sources did not stop")
	}
}

func TestConcurrentMulticast(t *testing.T) {
	c := newCluster(t, 3, []msg.RingID{1, 2, 3}, func(_ msg.RingID, cfg *ringpaxos.Config) {
		cfg.SkipInterval = 5 * time.Millisecond
		cfg.SkipRate = 50
	})
	l := c.learnerFor(0, 1, 1, 2, 3)
	c.start()
	const perRing = 20
	var wg sync.WaitGroup
	for r := msg.RingID(1); r <= 3; r++ {
		wg.Add(1)
		go func(r msg.RingID) {
			defer wg.Done()
			for k := 0; k < perRing; k++ {
				if err := c.nodes[int(r)%3].Multicast(r, []byte(fmt.Sprintf("r%d-%d", r, k))); err != nil {
					t.Errorf("multicast: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	got := collectPayloads(t, l, 3*perRing, 20*time.Second)
	if len(got) != 3*perRing {
		t.Fatalf("delivered %d", len(got))
	}
}
