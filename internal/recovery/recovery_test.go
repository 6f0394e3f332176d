package recovery

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/netsim"
	"mrp/internal/ringpaxos"
	"mrp/internal/smr"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// kvSM is a deterministic map state machine ("k=v" set ops).
type kvSM struct {
	mu sync.Mutex
	m  map[string]string
}

func newKvSM() *kvSM { return &kvSM{m: make(map[string]string)} }

func (s *kvSM) Execute(op []byte) []byte {
	i := bytes.IndexByte(op, '=')
	if i < 0 {
		return []byte("err")
	}
	s.mu.Lock()
	s.m[string(op[:i])] = string(op[i+1:])
	s.mu.Unlock()
	return []byte("ok")
}

func (s *kvSM) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, _ := json.Marshal(s.m)
	return b
}

func (s *kvSM) Restore(b []byte) {
	m := make(map[string]string)
	_ = json.Unmarshal(b, &m)
	s.mu.Lock()
	s.m = m
	s.mu.Unlock()
}

// member bundles everything one replica node runs.
type member struct {
	node    *multiring.Node
	proc    *ringpaxos.Process
	learner *multiring.Learner
	rep     *smr.Replica
	sm      *kvSM
	log     *storage.Log
	ckpt    *storage.CheckpointStore
	aux     *transport.HandlerMux
}

// env is a 3-replica deployment with trim coordination, built for crash
// and recovery injection.
type env struct {
	t       *testing.T
	net     *netsim.Network
	peers   []ringpaxos.Peer
	members []*member
	tc      *TrimCoordinator
}

func addrOf(i int) transport.Addr { return transport.Addr(fmt.Sprintf("replica-%d", i)) }

func newEnv(t *testing.T) *env {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	e := &env{t: t, net: net}
	for i := 0; i < 3; i++ {
		e.peers = append(e.peers, ringpaxos.Peer{
			ID:    msg.NodeID(i + 1),
			Addr:  addrOf(i),
			Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
		})
	}
	for i := 0; i < 3; i++ {
		e.members = append(e.members, e.buildMember(i, 0, nil))
	}
	// Trim coordination runs at node 0 (the ring coordinator).
	e.tc = NewTrimCoordinator(TrimConfig{
		Ring:      1,
		Endpoint:  e.members[0].node.Endpoint(),
		Replicas:  []transport.Addr{addrOf(0), addrOf(1), addrOf(2)},
		Acceptors: []transport.Addr{addrOf(0), addrOf(1), addrOf(2)},
		Quorum:    2,
		Interval:  25 * time.Millisecond,
	})
	// Node 0's ring Aux must serve both trim queries (it is a replica) and
	// trim replies (it is the trim coordinator).
	rep0 := e.members[0].rep
	e.members[0].aux.Set(func(envp transport.Envelope) {
		switch envp.Msg.(type) {
		case *msg.TrimQuery:
			rep0.HandleTrimQuery(envp)
		case *msg.TrimReply:
			e.tc.HandleReply(envp)
		}
	})
	e.tc.Start()
	t.Cleanup(func() {
		e.tc.Stop()
		for _, m := range e.members {
			if m != nil {
				m.stopAll()
			}
		}
		net.Close()
	})
	return e
}

// buildMember constructs (or rebuilds, for recovery) replica i. start is
// the ring delivery start instance; install, when non-nil, is the
// checkpoint to restore before starting.
func (e *env) buildMember(i int, start msg.Instance, install *storage.Checkpoint) *member {
	e.t.Helper()
	m := &member{
		sm:  newKvSM(),
		aux: &transport.HandlerMux{},
	}
	if old := e.membersAt(i); old != nil {
		m.ckpt = old.ckpt // stable storage survives the crash
	} else {
		m.ckpt = storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk))
	}
	m.log = storage.NewLog(storage.InMemory)
	if old := e.membersAt(i); old != nil {
		m.log = old.log // acceptor stable storage also survives
	}
	node := multiring.NewNode(e.peers[i].ID, e.net.Endpoint(addrOf(i)))
	proc, err := node.Join(ringpaxos.Config{
		Ring:          1,
		Peers:         e.peers,
		Coordinator:   e.peers[0].ID,
		Log:           m.log,
		BatchDelay:    time.Millisecond,
		RetryTimeout:  30 * time.Millisecond,
		StartInstance: start,
		Aux:           m.aux.Handle,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	learner := multiring.NewLearner(1, proc)
	rep := smr.NewReplica(smr.ReplicaConfig{
		Node:    node,
		Learner: learner,
		SM:      m.sm,
		Ckpt:    m.ckpt,
	})
	if install != nil {
		if err := rep.InstallCheckpoint(*install); err != nil {
			e.t.Fatal(err)
		}
	}
	m.aux.Set(rep.HandleTrimQuery)
	node.Service(rep.HandleService)
	node.Start()
	learner.Start()
	rep.Start()
	m.node, m.proc, m.learner, m.rep = node, proc, learner, rep
	return m
}

func (e *env) membersAt(i int) *member {
	if i < len(e.members) {
		return e.members[i]
	}
	return nil
}

func (m *member) stopAll() {
	m.rep.Stop()
	m.learner.Stop()
	m.node.Stop()
}

func (e *env) client(id uint64) *smr.Client {
	ep := e.net.Endpoint(transport.Addr(fmt.Sprintf("client-%d", id)))
	cl := smr.NewClient(smr.ClientConfig{
		ID:       id,
		Endpoint: ep,
		Proposers: map[msg.RingID][]transport.Addr{
			1: {addrOf(0), addrOf(1)},
		},
		Timeout: 10 * time.Second,
	})
	e.t.Cleanup(cl.Close)
	return cl
}

func (e *env) waitExecuted(idx int, n uint64, timeout time.Duration) {
	e.t.Helper()
	deadline := time.Now().Add(timeout)
	for e.members[idx].rep.Executed() < n {
		if time.Now().After(deadline) {
			e.t.Fatalf("replica %d executed %d, want >= %d", idx, e.members[idx].rep.Executed(), n)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

func TestTrimAfterQuorumCheckpoints(t *testing.T) {
	e := newEnv(t)
	cl := e.client(500)
	for i := 0; i < 20; i++ {
		if _, err := cl.Execute(1, []byte(fmt.Sprintf("k%d=v%d", i, i))); err != nil {
			t.Fatal(err)
		}
	}
	// Before any checkpoint the acceptors must not trim.
	time.Sleep(80 * time.Millisecond)
	if lw := e.members[0].log.LowWatermark(); lw != 0 {
		t.Fatalf("trim before checkpoints: low=%d", lw)
	}
	// Two replicas checkpoint (a quorum); trimming may now advance to the
	// minimum of their safe instances.
	e.members[0].rep.Checkpoint()
	e.members[1].rep.Checkpoint()
	deadline := time.Now().Add(5 * time.Second)
	for e.tc.Trims() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no trim after quorum of checkpoints")
		}
		time.Sleep(5 * time.Millisecond)
	}
	k := e.tc.LastTrim()
	safe0 := e.members[0].rep.SafeTuple()[0].Instance
	safe1 := e.members[1].rep.SafeTuple()[0].Instance
	min := safe0
	if safe1 < min {
		min = safe1
	}
	if k > min {
		t.Fatalf("K_T = %d exceeds quorum min %d (Predicate 2 violated)", k, min)
	}
	// Acceptor logs actually trimmed.
	deadline = time.Now().Add(2 * time.Second)
	for e.members[2].log.LowWatermark() < k {
		if time.Now().After(deadline) {
			t.Fatalf("acceptor 2 low=%d, want >= %d", e.members[2].log.LowWatermark(), k)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashRecoveryEndToEnd reproduces the Section 8.5 scenario at test
// scale: a replica is terminated, the others keep serving and checkpoint,
// acceptors trim, and the replica recovers by installing a remote
// checkpoint and replaying the missing instances from the acceptors.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	e := newEnv(t)
	cl := e.client(500)
	put := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := cl.Execute(1, []byte(fmt.Sprintf("k%d=v%d", i, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 15)
	e.waitExecuted(2, 15, 5*time.Second)

	// Replica 2 is terminated. Survivors heal the ring around it.
	e.members[2].stopAll()
	e.members[0].proc.SetPeerDown(3, true)
	e.members[1].proc.SetPeerDown(3, true)

	// Traffic continues; the survivors checkpoint so acceptors can trim
	// beyond what replica 2 ever saw.
	put(15, 40)
	e.waitExecuted(0, 40, 10*time.Second)
	e.members[0].rep.Checkpoint()
	e.members[1].rep.Checkpoint()
	deadline := time.Now().Add(5 * time.Second)
	for e.tc.Trims() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no trim while replica down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	trimmedTo := e.tc.LastTrim()
	if trimmedTo == 0 {
		t.Fatal("expected a positive trim point")
	}
	put(40, 50)
	e.waitExecuted(0, 50, 10*time.Second)

	// Replica 2 recovers: first the checkpoint conversation on a dedicated
	// endpoint, then rejoin the ring at the recovered start instance.
	recEp := e.net.Endpoint("replica-2-recovery")
	res, err := Recover(RecoverConfig{
		Endpoint: recEp,
		Peers:    []transport.Addr{addrOf(0), addrOf(1)},
		Quorum:   2,
		Local:    e.members[2].ckpt,
		Timeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !res.Transferred {
		t.Fatalf("recovery result = %+v, want remote transfer", res)
	}
	start := StartInstances(res.Checkpoint.Tuple)[1]
	if start == 0 {
		t.Fatal("no start instance for ring 1")
	}
	// The checkpoint must cover everything the acceptors trimmed
	// (K_T <= K_R, Predicate 5) or recovery would be impossible.
	if start <= trimmedTo {
		t.Fatalf("checkpoint start %d does not cover trim point %d", start, trimmedTo)
	}

	e.members[2] = e.buildMember(2, start, &res.Checkpoint)
	e.members[0].proc.SetPeerDown(3, false)
	e.members[1].proc.SetPeerDown(3, false)

	// More traffic lands after recovery; the recovered replica must reach
	// the exact same state as the survivors.
	put(50, 60)
	deadline = time.Now().Add(15 * time.Second)
	for {
		s0 := e.members[0].sm.Snapshot()
		s2 := e.members[2].sm.Snapshot()
		if bytes.Equal(s0, s2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered replica diverged:\nsurvivor: %s\nrecovered: %s", s0, s2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRecoverColdStartNoPeers(t *testing.T) {
	net := netsim.New()
	defer net.Close()
	res, err := Recover(RecoverConfig{
		Endpoint: net.Endpoint("lonely"),
		Peers:    nil,
		Timeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("cold start should find nothing")
	}
}

func TestRecoverPrefersFreshLocal(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(0))
	defer net.Close()
	// Peer with an OLD checkpoint.
	peerEp := net.Endpoint("peer")
	go func() {
		for env := range peerEp.Inbox() {
			switch m := env.Msg.(type) {
			case *msg.CkptQuery:
				_ = peerEp.Send(env.From, &msg.CkptReply{
					Seq: m.Seq, Replica: 9,
					Tuple: []msg.RingInstance{{Ring: 1, Instance: 5}},
				})
			case *msg.CkptFetch:
				_ = peerEp.Send(env.From, &msg.CkptData{
					Seq: m.Seq, Tuple: []msg.RingInstance{{Ring: 1, Instance: 5}}, State: []byte("old"),
				})
			}
		}
	}()
	local := storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk))
	local.Save(storage.Checkpoint{Tuple: []msg.RingInstance{{Ring: 1, Instance: 50}}, State: []byte("new")})
	res, err := Recover(RecoverConfig{
		Endpoint: net.Endpoint("rec"),
		Peers:    []transport.Addr{"peer"},
		Quorum:   1,
		Local:    local,
		Timeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred {
		t.Fatal("should not transfer an older remote checkpoint")
	}
	if string(res.Checkpoint.State) != "new" {
		t.Fatalf("state = %q", res.Checkpoint.State)
	}
}

// TestRecoverTransfersFresherRemote checks that a peer's checkpoint with a
// higher tuple wins over an older local one (Predicate 3): the recovering
// replica fetches and installs the remote state.
func TestRecoverTransfersFresherRemote(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(0))
	defer net.Close()
	peerEp := net.Endpoint("peer")
	go func() {
		for env := range peerEp.Inbox() {
			switch m := env.Msg.(type) {
			case *msg.CkptQuery:
				_ = peerEp.Send(env.From, &msg.CkptReply{
					Seq: m.Seq, Replica: 9,
					Tuple: []msg.RingInstance{{Ring: 1, Instance: 50}},
				})
			case *msg.CkptFetch:
				_ = peerEp.Send(env.From, &msg.CkptData{
					Seq:   m.Seq,
					Tuple: []msg.RingInstance{{Ring: 1, Instance: 50}},
					State: []byte("post-split"),
				})
			}
		}
	}()
	// The local checkpoint predates the split and is older.
	local := storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk))
	local.Save(storage.Checkpoint{
		Tuple: []msg.RingInstance{{Ring: 1, Instance: 5}},
		State: []byte("pre-split"),
	})
	res, err := Recover(RecoverConfig{
		Endpoint: net.Endpoint("rec"),
		Peers:    []transport.Addr{"peer"},
		Quorum:   1,
		Local:    local,
		Timeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Transferred || string(res.Checkpoint.State) != "post-split" {
		t.Fatalf("transfer = %v, state %q", res.Transferred, res.Checkpoint.State)
	}
}

func TestRecoverTimeoutWithoutQuorum(t *testing.T) {
	net := netsim.New()
	defer net.Close()
	_ = net.Endpoint("silent-peer") // exists but never answers
	_, err := Recover(RecoverConfig{
		Endpoint:   net.Endpoint("rec"),
		Peers:      []transport.Addr{"silent-peer"},
		Quorum:     1,
		Timeout:    200 * time.Millisecond,
		RetryEvery: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("expected ErrNoQuorum")
	}
}

func TestStartInstances(t *testing.T) {
	m := StartInstances([]msg.RingInstance{{Ring: 1, Instance: 10}, {Ring: 3, Instance: 0}})
	if m[1] != 11 || m[3] != 1 {
		t.Fatalf("starts = %v", m)
	}
}

// TestTrimRecoveryQuorumIntersectionProperty checks Predicates 2-5
// abstractly: for any checkpoint states and intersecting quorums,
// K_T <= K_R, so a recovering replica can always replay the suffix.
func TestTrimRecoveryQuorumIntersectionProperty(t *testing.T) {
	f := func(safes [5]uint16, bitsT, bitsR uint8) bool {
		// Build quorums of size 3 out of 5 replicas from the random bits;
		// any two size-3 subsets of 5 intersect.
		qt := pickQuorum(bitsT)
		qr := pickQuorum(bitsR)
		// K_T = min over Q_T.
		kt := uint16(65535)
		for _, i := range qt {
			if safes[i] < kt {
				kt = safes[i]
			}
		}
		// K_R = max over Q_R (the most up-to-date checkpoint, Predicate 3).
		kr := uint16(0)
		for _, i := range qr {
			if safes[i] > kr {
				kr = safes[i]
			}
		}
		return kt <= kr // Predicate 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// pickQuorum deterministically picks 3 of 5 indices from random bits.
func pickQuorum(bits uint8) []int {
	var q []int
	for i := 0; i < 5 && len(q) < 3; i++ {
		if bits&(1<<i) != 0 {
			q = append(q, i)
		}
	}
	for i := 0; len(q) < 3; i++ {
		dup := false
		for _, x := range q {
			if x == i {
				dup = true
			}
		}
		if !dup {
			q = append(q, i)
		}
	}
	return q
}
