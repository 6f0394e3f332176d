package ringpaxos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// testRing wires n processes (all proposer+acceptor+learner by default)
// into one ring over a simulated network and collects every node's
// delivered payload sequence.
type testRing struct {
	t       *testing.T
	net     *netsim.Network
	procs   []*Process
	routers []*transport.Router
	eps     []*netsim.Endpoint
	logs    []*storage.Log

	mu        sync.Mutex
	delivered [][]string     // per node, non-skip payloads in delivery order
	decided   []msg.Instance // per node, highest instance delivered
	collectWG sync.WaitGroup
}

func newTestRing(t *testing.T, n int, mutate func(i int, c *Config)) *testRing {
	t.Helper()
	return newWrappedTestRing(t, n, mutate, nil)
}

// newWrappedTestRing is newTestRing with node i's process talking through
// wrap(i, ep) instead of its simulated endpoint, when wrap is non-nil.
func newWrappedTestRing(t *testing.T, n int, mutate func(i int, c *Config), wrap func(i int, ep transport.Endpoint) transport.Endpoint) *testRing {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	tr := &testRing{
		t:         t,
		net:       net,
		delivered: make([][]string, n),
		decided:   make([]msg.Instance, n),
	}
	peers := make([]Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = Peer{
			ID:    msg.NodeID(i + 1),
			Addr:  transport.Addr(fmt.Sprintf("node-%d", i)),
			Roles: RoleProposer | RoleAcceptor | RoleLearner,
		}
	}
	for i := 0; i < n; i++ {
		ep := net.Endpoint(peers[i].Addr)
		cfg := Config{
			Ring:         1,
			Self:         peers[i].ID,
			Peers:        peers,
			Coordinator:  peers[0].ID,
			Log:          storage.NewLog(storage.InMemory),
			BatchDelay:   time.Millisecond,
			RetryTimeout: 50 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		var pep transport.Endpoint = ep
		if wrap != nil {
			pep = wrap(i, ep)
		}
		proc, err := New(cfg, pep)
		if err != nil {
			t.Fatal(err)
		}
		router := transport.NewRouter(ep)
		router.Ring(cfg.Ring, proc.In())
		router.Start()
		tr.procs = append(tr.procs, proc)
		tr.routers = append(tr.routers, router)
		tr.eps = append(tr.eps, ep)
		tr.logs = append(tr.logs, cfg.Log)
	}
	for i, proc := range tr.procs {
		proc.Start()
		tr.collect(i, proc)
	}
	t.Cleanup(tr.close)
	return tr
}

func (tr *testRing) collect(i int, proc *Process) {
	tr.collectWG.Add(1)
	go func() {
		defer tr.collectWG.Done()
		for d := range proc.Decisions() {
			tr.mu.Lock()
			tr.decided[i] = d.Instance
			if d.Value.Skip && d.Value.SkipTo > d.Instance {
				tr.decided[i] = d.Value.SkipTo - 1
			}
			for _, e := range d.Value.Batch {
				tr.delivered[i] = append(tr.delivered[i], string(e.Data))
			}
			tr.mu.Unlock()
		}
	}()
}

func (tr *testRing) close() {
	for _, proc := range tr.procs {
		proc.Stop()
	}
	for _, r := range tr.routers {
		r.Stop()
	}
	tr.net.Close()
}

// crash stops node i's process and closes its endpoint.
func (tr *testRing) crash(i int) {
	tr.procs[i].Stop()
	tr.routers[i].Stop()
	_ = tr.eps[i].Close()
}

func (tr *testRing) seq(i int) []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]string(nil), tr.delivered[i]...)
}

// waitDelivered waits until every node in idxs has delivered at least n
// payloads.
func (tr *testRing) waitDelivered(idxs []int, n int, timeout time.Duration) {
	tr.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, i := range idxs {
			if len(tr.seq(i)) < n {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			counts := make([]int, len(tr.delivered))
			for i := range tr.delivered {
				counts[i] = len(tr.seq(i))
			}
			tr.t.Fatalf("timeout waiting for %d deliveries; got %v", n, counts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertPrefixAgreement checks the atomic broadcast order property: every
// pair of delivery sequences must agree on their common prefix.
func (tr *testRing) assertPrefixAgreement(idxs []int) {
	tr.t.Helper()
	for a := 0; a < len(idxs); a++ {
		for b := a + 1; b < len(idxs); b++ {
			sa, sb := tr.seq(idxs[a]), tr.seq(idxs[b])
			n := len(sa)
			if len(sb) < n {
				n = len(sb)
			}
			for k := 0; k < n; k++ {
				if sa[k] != sb[k] {
					tr.t.Fatalf("order violation at %d: node%d=%q node%d=%q",
						k, idxs[a], sa[k], idxs[b], sb[k])
				}
			}
		}
	}
}

func TestSingleValueDeliveredEverywhere(t *testing.T) {
	tr := newTestRing(t, 3, nil)
	if err := tr.procs[0].Propose([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	tr.waitDelivered([]int{0, 1, 2}, 1, 5*time.Second)
	for i := 0; i < 3; i++ {
		if got := tr.seq(i); got[0] != "v1" {
			t.Fatalf("node %d delivered %q", i, got[0])
		}
	}
}

func TestProposeFromNonCoordinator(t *testing.T) {
	tr := newTestRing(t, 3, nil)
	// Node 2 is not the coordinator: the proposal must circulate the ring.
	if err := tr.procs[2].Propose([]byte("ring-forwarded")); err != nil {
		t.Fatal(err)
	}
	tr.waitDelivered([]int{0, 1, 2}, 1, 5*time.Second)
	if got := tr.seq(1)[0]; got != "ring-forwarded" {
		t.Fatalf("delivered %q", got)
	}
}

func TestManyProposersTotalOrder(t *testing.T) {
	tr := newTestRing(t, 3, nil)
	const perNode = 50
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				if err := tr.procs[i].Propose([]byte(fmt.Sprintf("n%d-%d", i, k))); err != nil {
					t.Errorf("propose: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	tr.waitDelivered([]int{0, 1, 2}, 3*perNode, 10*time.Second)
	tr.assertPrefixAgreement([]int{0, 1, 2})
	// Validity: everything proposed was delivered exactly once.
	seen := make(map[string]int)
	for _, v := range tr.seq(0) {
		seen[v]++
	}
	if len(seen) != 3*perNode {
		t.Fatalf("distinct values = %d, want %d", len(seen), 3*perNode)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("value %q delivered %d times", v, c)
		}
	}
}

func TestBatchingGroupsProposals(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.BatchMaxBytes = 1024
		c.BatchDelay = 5 * time.Millisecond
	})
	for k := 0; k < 40; k++ {
		if err := tr.procs[0].Propose([]byte(fmt.Sprintf("b-%02d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1, 2}, 40, 5*time.Second)
	tr.assertPrefixAgreement([]int{0, 1, 2})
	// Batching must use far fewer instances than proposals.
	inst := tr.procs[0].Stats().Instances.Load()
	if inst >= 40 {
		t.Fatalf("instances = %d, want < 40 with batching", inst)
	}
	// FIFO from a single proposer through one coordinator.
	got := tr.seq(1)
	for k := 0; k < 40; k++ {
		if got[k] != fmt.Sprintf("b-%02d", k) {
			t.Fatalf("position %d = %q", k, got[k])
		}
	}
}

func TestSkipInstancesAdvanceWhenIdle(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.SkipInterval = 5 * time.Millisecond
		c.SkipRate = 100
	})
	// No proposals at all: rate leveling must still decide skip instances.
	deadline := time.Now().Add(5 * time.Second)
	for tr.procs[2].Stats().Skips.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("skips at learner = %d, want >= 3", tr.procs[2].Stats().Skips.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And values proposed between skips still get through.
	if err := tr.procs[0].Propose([]byte("amid-skips")); err != nil {
		t.Fatal(err)
	}
	tr.waitDelivered([]int{0, 1, 2}, 1, 5*time.Second)
	if tr.seq(2)[0] != "amid-skips" {
		t.Fatalf("delivered %q", tr.seq(2)[0])
	}
}

func TestLossyLinksEventuallyDeliver(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.RetryTimeout = 30 * time.Millisecond
	})
	// 20% loss on every ring link.
	for i := 0; i < 3; i++ {
		from := transport.Addr(fmt.Sprintf("node-%d", i))
		to := transport.Addr(fmt.Sprintf("node-%d", (i+1)%3))
		tr.net.SetLoss(from, to, 0.2)
	}
	const total = 30
	for k := 0; k < total; k++ {
		if err := tr.procs[k%3].Propose([]byte(fmt.Sprintf("lossy-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1, 2}, total, 20*time.Second)
	tr.assertPrefixAgreement([]int{0, 1, 2})
}

// TestRestartedProposerIsDelivered restarts a proposer and checks that its
// new proposals are delivered: a restarted process must not reuse the
// (proposer, seq) pairs the coordinator's dedup has already seen.
func TestRestartedProposerIsDelivered(t *testing.T) {
	tr := newTestRing(t, 3, nil)
	for k := 0; k < 5; k++ {
		if err := tr.procs[2].Propose([]byte(fmt.Sprintf("before-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0}, 5, 5*time.Second)

	tr.crash(2)
	ep := tr.net.Endpoint(tr.procs[2].cfg.Peers[2].Addr)
	proc, err := New(tr.procs[2].cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	router := transport.NewRouter(ep)
	router.Ring(proc.Ring(), proc.In())
	router.Start()
	proc.Start()
	tr.procs[2], tr.routers[2], tr.eps[2] = proc, router, ep
	tr.collect(2, proc)
	for k := 0; k < 5; k++ {
		if err := proc.Propose([]byte(fmt.Sprintf("after-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0}, 10, 5*time.Second)
}

func TestCoordinatorFailover(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.RetryTimeout = 30 * time.Millisecond
	})
	for k := 0; k < 10; k++ {
		if err := tr.procs[0].Propose([]byte(fmt.Sprintf("pre-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{1, 2}, 10, 5*time.Second)

	// Coordinator crashes; the survivors heal the ring around it and node 1
	// takes over.
	tr.crash(0)
	tr.procs[1].SetPeerDown(1, true)
	tr.procs[2].SetPeerDown(1, true)
	tr.procs[1].BecomeCoordinator()
	time.Sleep(50 * time.Millisecond)

	for k := 0; k < 10; k++ {
		if err := tr.procs[1].Propose([]byte(fmt.Sprintf("post-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{1, 2}, 20, 10*time.Second)
	tr.assertPrefixAgreement([]int{1, 2})
	// No duplicates across the failover.
	seen := make(map[string]int)
	for _, v := range tr.seq(1) {
		seen[v]++
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("value %q delivered %d times across failover", v, c)
		}
	}
}

func TestLearnerOnlyNodeDelivers(t *testing.T) {
	tr := newTestRing(t, 4, func(i int, c *Config) {
		if i == 3 {
			// Node 3 is a pure learner (no acceptor vote, no proposals).
			peers := append([]Peer(nil), c.Peers...)
			peers[3].Roles = RoleLearner
			c.Peers = peers
			c.Log = nil
		} else {
			peers := append([]Peer(nil), c.Peers...)
			peers[3].Roles = RoleLearner
			c.Peers = peers
		}
	})
	for k := 0; k < 20; k++ {
		if err := tr.procs[0].Propose([]byte(fmt.Sprintf("v-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1, 2, 3}, 20, 5*time.Second)
	tr.assertPrefixAgreement([]int{0, 1, 2, 3})
	if err := tr.procs[3].Propose([]byte("x")); err == nil {
		t.Fatal("non-proposer Propose should fail")
	}
}

func TestLateLearnerCatchesUpViaRetransmission(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.RetryTimeout = 20 * time.Millisecond
	})
	for k := 0; k < 15; k++ {
		if err := tr.procs[0].Propose([]byte(fmt.Sprintf("early-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1, 2}, 15, 5*time.Second)

	// A new learner-only node joins the ring's network and asks an acceptor
	// for the decided prefix directly (this is the acceptor-retransmission
	// path used by recovering replicas, Section 5.1).
	ep := tr.net.Endpoint("late-learner")
	done := make(chan []string)
	go func() {
		var got []string
		next := msg.Instance(1)
		for {
			_ = ep.Send("node-1", &msg.LearnReq{Ring: 1, From: next, To: next + 100})
			timeout := time.After(200 * time.Millisecond)
		drain:
			for {
				select {
				case env, ok := <-ep.Inbox():
					if !ok {
						return
					}
					resp, isResp := env.Msg.(*msg.LearnResp)
					if !isResp {
						continue
					}
					for _, it := range resp.Items {
						if it.Instance != next {
							continue
						}
						for _, e := range it.Value.Batch {
							got = append(got, string(e.Data))
						}
						if it.Value.Skip {
							next = it.Value.SkipTo
						} else {
							next++
						}
					}
					if len(got) >= 15 {
						done <- got
						return
					}
					break drain
				case <-timeout:
					break drain
				}
			}
		}
	}()
	select {
	case got := <-done:
		want := tr.seq(1)
		for i := 0; i < 15; i++ {
			if got[i] != want[i] {
				t.Fatalf("catch-up mismatch at %d: %q vs %q", i, got[i], want[i])
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late learner did not catch up")
	}
}

func TestConfigValidation(t *testing.T) {
	ep := netsim.New().Endpoint("x")
	peers := []Peer{{ID: 1, Addr: "x", Roles: RoleAcceptor | RoleLearner}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no peers", Config{Self: 1, Coordinator: 1}},
		{"self missing", Config{Self: 9, Coordinator: 1, Peers: peers}},
		{"coordinator missing", Config{Self: 1, Coordinator: 9, Peers: peers}},
		{"acceptor without log", Config{Self: 1, Coordinator: 1, Peers: peers}},
		{"coordinator not acceptor", Config{Self: 1, Coordinator: 1,
			Peers: []Peer{{ID: 1, Addr: "x", Roles: RoleLearner}}}},
		{"duplicate IDs", Config{Self: 1, Coordinator: 1,
			Peers: []Peer{{ID: 1, Addr: "x", Roles: RoleAcceptor}, {ID: 1, Addr: "y", Roles: RoleAcceptor}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg, ep); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRoleString(t *testing.T) {
	if (RoleProposer | RoleAcceptor | RoleLearner).String() != "PAL" {
		t.Fatal("PAL")
	}
	if Role(0).String() != "-" {
		t.Fatal("empty role")
	}
}

func TestBallotOwnership(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for idx := 0; idx < n; idx++ {
			for round := 1; round < 4; round++ {
				b := ballotFor(round, idx, n)
				if coordIdxOf(b, n) != idx {
					t.Fatalf("ballot %d (n=%d): owner %d != %d", b, n, coordIdxOf(b, n), idx)
				}
			}
		}
	}
}

// TestAcceptorCrashMajorityContinues: a non-coordinator acceptor crashes;
// after the ring heals around it, the remaining majority keeps deciding.
func TestAcceptorCrashMajorityContinues(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.RetryTimeout = 30 * time.Millisecond
	})
	for k := 0; k < 5; k++ {
		if err := tr.procs[0].Propose([]byte(fmt.Sprintf("pre-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1}, 5, 5*time.Second)

	// Node 2 (an acceptor, also the last acceptor for coordinator 0) dies.
	tr.crash(2)
	tr.procs[0].SetPeerDown(3, true)
	tr.procs[1].SetPeerDown(3, true)

	for k := 0; k < 5; k++ {
		if err := tr.procs[0].Propose([]byte(fmt.Sprintf("post-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1}, 10, 10*time.Second)
	tr.assertPrefixAgreement([]int{0, 1})
}

// TestPartitionHeals: a transient partition between two ring members stalls
// decisions; when it heals, retries push everything through.
func TestPartitionHeals(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.RetryTimeout = 30 * time.Millisecond
	})
	// Cut the coordinator's outbound ring link.
	tr.net.BlockLink("node-0", "node-1", true)
	for k := 0; k < 5; k++ {
		if err := tr.procs[0].Propose([]byte(fmt.Sprintf("stalled-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	if n := len(tr.seq(1)); n != 0 {
		t.Fatalf("node 1 delivered %d during partition", n)
	}
	tr.net.BlockLink("node-0", "node-1", false)
	tr.waitDelivered([]int{0, 1, 2}, 5, 10*time.Second)
	tr.assertPrefixAgreement([]int{0, 1, 2})
}

// TestStatsCounters sanity-checks the process statistics used as the
// Figure 3 CPU proxy.
func TestStatsCounters(t *testing.T) {
	tr := newTestRing(t, 3, nil)
	for k := 0; k < 10; k++ {
		if err := tr.procs[0].Propose([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1, 2}, 10, 5*time.Second)
	st := tr.procs[0].Stats()
	if st.Proposals.Load() != 10 {
		t.Fatalf("proposals = %d", st.Proposals.Load())
	}
	if st.Instances.Load() == 0 || st.Delivered.Load() == 0 {
		t.Fatalf("instances=%d delivered=%d", st.Instances.Load(), st.Delivered.Load())
	}
	if st.BytesOut.Load() == 0 || st.MsgsOut.Load() == 0 {
		t.Fatal("no outbound traffic recorded at coordinator")
	}
}

// TestPhase1WindowExtensionUnderLoad crosses many Phase 1 window
// boundaries while proposals are flowing; the coordinator must extend its
// promised window without stalling the ring.
func TestPhase1WindowExtensionUnderLoad(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.phase1Window = 64 // force frequent extensions
		c.RetryTimeout = 50 * time.Millisecond
	})
	const total = 500
	for k := 0; k < total; k++ {
		if err := tr.procs[k%3].Propose([]byte(fmt.Sprintf("w-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1, 2}, total, 20*time.Second)
	tr.assertPrefixAgreement([]int{0, 1, 2})
}

// TestPhase1WindowExtensionWithSkips drives window churn with skip ranges
// (rate leveling consumes instance space much faster than proposals).
func TestPhase1WindowExtensionWithSkips(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.phase1Window = 256
		c.SkipInterval = 2 * time.Millisecond
		c.SkipRate = 20000 // ~40+ skips per tick: a window lasts a few ticks
		c.RetryTimeout = 50 * time.Millisecond
	})
	deadline := time.Now().Add(10 * time.Second)
	sent := 0
	for time.Now().Before(deadline) && sent < 60 {
		if err := tr.procs[0].Propose([]byte(fmt.Sprintf("s-%02d", sent))); err != nil {
			t.Fatal(err)
		}
		sent++
		time.Sleep(10 * time.Millisecond)
	}
	tr.waitDelivered([]int{0, 1, 2}, 60, 20*time.Second)
	tr.assertPrefixAgreement([]int{0, 1, 2})
}

// decidedAt returns the highest instance node i has delivered (the end
// of the range, for a skip).
func (tr *testRing) decidedAt(i int) msg.Instance {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.decided[i]
}

// waitDecided waits until process i has delivered instance want.
func (tr *testRing) waitDecided(i int, want msg.Instance, timeout time.Duration) {
	tr.t.Helper()
	deadline := time.Now().Add(timeout)
	for tr.decidedAt(i) < want {
		if time.Now().After(deadline) {
			tr.t.Fatalf("node %d decided up to %d, want %d", i, tr.decidedAt(i), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestSkipReachesCoordinator: learner feedback from a member that
// does not coordinate travels the ring to the coordinator, which skips at
// once — the Δ tick is ten seconds away — and every member learns the
// skip.
func TestRequestSkipReachesCoordinator(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.SkipInterval = 10 * time.Second
		c.SkipRate = 5 // λ x Δ = 50 instances per interval
	})
	// A first value gives the coordinator its promised window.
	if err := tr.procs[1].Propose([]byte("first")); err != nil {
		t.Fatal(err)
	}
	tr.waitDelivered([]int{0, 1, 2}, 1, 5*time.Second)
	tr.procs[2].RequestSkip(40)
	for i := range tr.procs {
		tr.waitDecided(i, 39, 5*time.Second)
	}
	// A value proposed afterwards takes the first instance past the skip.
	skipped := tr.decidedAt(1)
	if err := tr.procs[1].Propose([]byte("after-skip")); err != nil {
		t.Fatal(err)
	}
	tr.waitDelivered([]int{0, 1, 2}, 2, 5*time.Second)
	if got := tr.decidedAt(2); got != skipped+1 {
		t.Fatalf("value decided at %d, want %d", got, skipped+1)
	}
}

// TestRequestSkipBounded: a request is served with a skip covering what
// the current Δ interval still owes the ring (λ x Δ = 10 here, one
// instance already started), at most one interval's worth, and not at all
// with rate leveling off. Each ring first decides a value, so its
// coordinator holds a promised window when the request arrives.
func TestRequestSkipBounded(t *testing.T) {
	run := func(t *testing.T, mutate func(int, *Config), ask, wantSecond msg.Instance) {
		tr := newTestRing(t, 3, mutate)
		if err := tr.procs[0].Propose([]byte("first")); err != nil {
			t.Fatal(err)
		}
		tr.waitDelivered([]int{0}, 1, 5*time.Second)
		tr.procs[0].RequestSkip(ask)
		// Propose only once node 0's event loop has taken the request
		// off its queue, so the request is served first.
		deadline := time.Now().Add(5 * time.Second)
		for len(tr.procs[0].skipReqCh) > 0 {
			if time.Now().After(deadline) {
				t.Fatal("skip request never consumed")
			}
			time.Sleep(time.Millisecond)
		}
		if err := tr.procs[0].Propose([]byte("second")); err != nil {
			t.Fatal(err)
		}
		tr.waitDelivered([]int{0}, 2, 5*time.Second)
		if got := tr.decidedAt(0); got != wantSecond {
			t.Fatalf("second value decided at %d, want %d", got, wantSecond)
		}
	}
	leveled := func(_ int, c *Config) {
		c.SkipInterval = 10 * time.Second
		c.SkipRate = 1
	}
	// Instance 1 holds the first value; the interval owes 9 more.
	t.Run("fills-interval", func(t *testing.T) { run(t, leveled, 5, 11) })
	t.Run("capped", func(t *testing.T) { run(t, leveled, 1000, 12) })
	t.Run("leveling-off", func(t *testing.T) { run(t, nil, 1000, 2) })
}

// TestDecisionForwardedBeforeDelivery: a member whose sink blocks has
// already forwarded the decision, so the next member learns the instance
// meanwhile. A replica executing a multi-partition transaction blocks its
// ring loop inside the sink until the other participants vote, and they
// vote only once they have learned the instance. Retransmission is slowed
// to ten seconds, so only the forwarded decision can reach member 2 in
// time.
func TestDecisionForwardedBeforeDelivery(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	peers := make([]Peer, 3)
	for i := range peers {
		peers[i] = Peer{
			ID:    msg.NodeID(i + 1),
			Addr:  transport.Addr(fmt.Sprintf("fwd-%d", i)),
			Roles: RoleProposer | RoleAcceptor | RoleLearner,
		}
	}
	release := make(chan struct{})
	blocked := make(chan msg.Instance, 1)
	learned := make(chan msg.Instance, 1)
	var procs []*Process
	var routers []*transport.Router
	for i, peer := range peers {
		ep := net.Endpoint(peer.Addr)
		proc, err := New(Config{
			Ring:         1,
			Self:         peer.ID,
			Peers:        peers,
			Coordinator:  peers[0].ID,
			Log:          storage.NewLog(storage.InMemory),
			BatchDelay:   time.Millisecond,
			RetryTimeout: 10 * time.Second,
		}, ep)
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			// The decision reaches member 1 (the coordinator) from the
			// last acceptor, member 3, and member 1 forwards it to 2.
			proc.SetSink(func(d Decided) {
				select {
				case blocked <- d.Instance:
				default:
				}
				<-release
			})
		case 1:
			proc.SetSink(func(d Decided) {
				select {
				case learned <- d.Instance:
				default:
				}
			})
		}
		router := transport.NewRouter(ep)
		router.Ring(1, proc.In())
		router.Start()
		procs = append(procs, proc)
		routers = append(routers, router)
	}
	for _, p := range procs {
		p.Start()
	}
	defer func() {
		close(release)
		for _, p := range procs {
			p.Stop()
		}
		for _, r := range routers {
			r.Stop()
		}
		net.Close()
	}()

	if err := procs[0].Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("member 1 never delivered the instance")
	}
	select {
	case inst := <-learned:
		if inst != 1 {
			t.Fatalf("member 2 learned instance %d, want 1", inst)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("member 2 did not learn the instance while member 1's sink blocked")
	}
}
