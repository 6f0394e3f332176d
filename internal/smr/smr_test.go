package smr

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
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// regSM is a tiny deterministic state machine: ops are "set k v" /
// "get k" encoded as JSON; state is a map.
type regSM struct {
	mu sync.Mutex
	m  map[string]string
	n  int // executed op count, part of the state
}

type regOp struct {
	Kind string `json:"kind"`
	K    string `json:"k"`
	V    string `json:"v"`
}

func newRegSM() *regSM { return &regSM{m: make(map[string]string)} }

func (s *regSM) Execute(op []byte) []byte {
	var o regOp
	if err := json.Unmarshal(op, &o); err != nil {
		return []byte("err")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	switch o.Kind {
	case "set":
		s.m[o.K] = o.V
		return []byte("ok:" + fmt.Sprint(s.n))
	case "get":
		return []byte(s.m[o.K])
	default:
		return []byte("err")
	}
}

func (s *regSM) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, _ := json.Marshal(struct {
		M map[string]string `json:"m"`
		N int               `json:"n"`
	}{s.m, s.n})
	return b
}

func (s *regSM) Restore(b []byte) {
	var st struct {
		M map[string]string `json:"m"`
		N int               `json:"n"`
	}
	_ = json.Unmarshal(b, &st)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = st.M
	if s.m == nil {
		s.m = make(map[string]string)
	}
	s.n = st.N
}

func setOp(k, v string) []byte { b, _ := json.Marshal(regOp{Kind: "set", K: k, V: v}); return b }
func getOp(k string) []byte    { b, _ := json.Marshal(regOp{Kind: "get", K: k}); return b }

// smrCluster is a 3-replica SMR deployment over one ring.
type smrCluster struct {
	net      *netsim.Network
	nodes    []*multiring.Node
	replicas []*Replica
	sms      []*regSM
	addrs    []transport.Addr
}

func newSMRCluster(t *testing.T) *smrCluster {
	return newSMRClusterOpt(t, nil)
}

// newSMRClusterOpt builds the cluster with a per-replica config hook
// (wrapped state machines, ...).
func newSMRClusterOpt(t *testing.T, mod func(i int, rc *ReplicaConfig)) *smrCluster {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	c := &smrCluster{net: net}
	peers := make([]ringpaxos.Peer, 3)
	for i := range peers {
		addr := transport.Addr(fmt.Sprintf("replica-%d", i))
		peers[i] = ringpaxos.Peer{
			ID:    msg.NodeID(i + 1),
			Addr:  addr,
			Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
		}
		c.addrs = append(c.addrs, addr)
	}
	for i := range peers {
		node := multiring.NewNode(peers[i].ID, net.Endpoint(peers[i].Addr))
		proc, err := node.Join(ringpaxos.Config{
			Ring:         1,
			Peers:        peers,
			Coordinator:  peers[0].ID,
			Log:          storage.NewLog(storage.InMemory),
			BatchDelay:   time.Millisecond,
			RetryTimeout: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		learner := multiring.NewLearner(1, proc)
		sm := newRegSM()
		rc := ReplicaConfig{
			Node:    node,
			Learner: learner,
			SM:      sm,
			Ckpt:    storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk)),
		}
		if mod != nil {
			mod(i, &rc)
		}
		rep := NewReplica(rc)
		node.Service(rep.HandleService)
		node.Start()
		learner.Start()
		rep.Start()
		c.nodes = append(c.nodes, node)
		c.replicas = append(c.replicas, rep)
		c.sms = append(c.sms, sm)
		t.Cleanup(func() {
			rep.Stop()
			learner.Stop()
			node.Stop()
		})
	}
	t.Cleanup(net.Close)
	return c
}

func (c *smrCluster) client(t *testing.T, id uint64) *Client {
	t.Helper()
	ep := c.net.Endpoint(transport.Addr(fmt.Sprintf("client-%d", id)))
	cl := NewClient(ClientConfig{
		ID:        id,
		Endpoint:  ep,
		Proposers: map[msg.RingID][]transport.Addr{1: c.addrs},
		Timeout:   10 * time.Second,
	})
	t.Cleanup(cl.Close)
	return cl
}

func TestClientExecute(t *testing.T) {
	c := newSMRCluster(t)
	cl := c.client(t, 1000)
	res, err := cl.Execute(1, setOp("a", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "ok:1" {
		t.Fatalf("result = %q", res)
	}
	res, err = cl.Execute(1, getOp("a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1" {
		t.Fatalf("get = %q", res)
	}
}

func TestReplicasConverge(t *testing.T) {
	c := newSMRCluster(t)
	cl := c.client(t, 1000)
	for i := 0; i < 30; i++ {
		if _, err := cl.Execute(1, setOp(fmt.Sprintf("k%d", i%7), fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	// All replicas must reach the same state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s0, s1, s2 := c.sms[0].Snapshot(), c.sms[1].Snapshot(), c.sms[2].Snapshot()
		if bytes.Equal(s0, s1) && bytes.Equal(s1, s2) && c.replicas[0].Executed() == 30 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverged:\n%s\n%s\n%s", s0, s1, s2)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDuplicateCommandExecutedOnce(t *testing.T) {
	c := newSMRCluster(t)
	// Inject the same command proposal twice, bypassing the client's retry
	// logic (as a lost-response retransmission would).
	ep := c.net.Endpoint("raw-client")
	cmd := Command{ClientID: 2000, Seq: 1, ReplyTo: ep.Addr(), Op: setOp("x", "1")}
	prop := &msg.Proposal{Ring: 1, ProposerID: 2000, Seq: 1, Payload: cmd.Encode()}
	// Different coordinators dedup by (proposer, seq); send the second copy
	// much later so it is not even batched together.
	_ = ep.Send(c.addrs[0], prop)
	time.Sleep(100 * time.Millisecond)
	// Re-encode a fresh proposal with the same identity via another node.
	_ = ep.Send(c.addrs[1], prop)
	time.Sleep(300 * time.Millisecond)
	if got := c.replicas[0].Executed(); got != 1 {
		t.Fatalf("executed = %d, want 1", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	c := newSMRCluster(t)
	const nClients = 4
	const perClient = 15
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		cl := c.client(t, uint64(1000+ci))
		wg.Add(1)
		go func(ci int, cl *Client) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if _, err := cl.Execute(1, setOp(fmt.Sprintf("c%d-%d", ci, k), "v")); err != nil {
					t.Errorf("client %d: %v", ci, err)
					return
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for c.replicas[2].Executed() < nClients*perClient {
		if time.Now().After(deadline) {
			t.Fatalf("executed = %d", c.replicas[2].Executed())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCheckpointAndTuples(t *testing.T) {
	c := newSMRCluster(t)
	cl := c.client(t, 1000)
	for i := 0; i < 10; i++ {
		if _, err := cl.Execute(1, setOp("k", fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.replicas[0]
	// The client's response may come from another replica; poll until this
	// replica has applied everything.
	var applied []msg.RingInstance
	deadline := time.Now().Add(5 * time.Second)
	for {
		applied = rep.AppliedTuple()
		if len(applied) == 1 && applied[0].Instance > 0 && rep.Executed() >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("applied tuple = %+v (executed %d)", applied, rep.Executed())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if applied[0].Ring != 1 {
		t.Fatalf("applied tuple = %+v", applied)
	}
	if len(rep.SafeTuple()) != 0 {
		t.Fatalf("safe tuple before checkpoint = %+v", rep.SafeTuple())
	}
	rep.Checkpoint()
	safe := rep.SafeTuple()
	if len(safe) != 1 || safe[0].Instance == 0 {
		t.Fatalf("safe tuple = %+v", safe)
	}
	if rep.Checkpoints() != 1 {
		t.Fatalf("checkpoints = %d", rep.Checkpoints())
	}
}

func TestCheckpointRestoresDedupAndState(t *testing.T) {
	c := newSMRCluster(t)
	cl := c.client(t, 3000)
	if _, err := cl.Execute(1, setOp("a", "42")); err != nil {
		t.Fatal(err)
	}
	rep := c.replicas[0]
	deadline := time.Now().Add(5 * time.Second)
	for rep.Executed() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("replica 0 never executed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep.Checkpoint()
	ck, ok := storageLoad(rep)
	if !ok {
		t.Fatal("no checkpoint")
	}
	// Install into a fresh replica shell and check state + dedup carry over.
	sm2 := newRegSM()
	rep2 := NewReplica(ReplicaConfig{
		Node:    c.nodes[0],
		Learner: multiring.NewLearner(1),
		SM:      sm2,
	})
	if err := rep2.InstallCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if got := sm2.Execute(getOp("a")); string(got) != "42" {
		t.Fatalf("restored get = %q", got)
	}
	rep2.mu.Lock()
	entry, ok := rep2.dedup[3000]
	rep2.mu.Unlock()
	if !ok || entry.seq != 1 {
		t.Fatalf("dedup not restored: %+v %v", entry, ok)
	}
	tuple := rep2.AppliedTuple()
	if len(tuple) != 1 || tuple[0].Instance == 0 {
		t.Fatalf("restored tuple = %+v", tuple)
	}
}

func storageLoad(r *Replica) (storage.Checkpoint, bool) {
	return r.cfg.Ckpt.Load()
}

func TestExecuteGather(t *testing.T) {
	c := newSMRCluster(t)
	cl := c.client(t, 1000)
	// All three replicas reply to any command on ring 1; classify by the
	// first byte of the result to emulate partition tags. Here every result
	// is identical, so gather with want=1 completes.
	res, err := cl.ExecuteGather(1, setOp("g", "1"), 1, func(b []byte) (int, bool) {
		return 0, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
}

func TestClientNoProposers(t *testing.T) {
	net := netsim.New()
	defer net.Close()
	cl := NewClient(ClientConfig{ID: 1, Endpoint: net.Endpoint("c"), Proposers: nil})
	defer cl.Close()
	if _, err := cl.Execute(1, []byte("x")); err == nil {
		t.Fatal("expected error with no proposers")
	}
}

func TestCommandRoundTrip(t *testing.T) {
	c := Command{ClientID: 7, Seq: 9, ReplyTo: "client-addr", Op: []byte("payload")}
	got, err := DecodeCommand(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != 7 || got.Seq != 9 || got.ReplyTo != "client-addr" || string(got.Op) != "payload" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestCommandRoundTripProperty(t *testing.T) {
	f := func(id, seq uint64, addr string, op []byte) bool {
		if len(addr) > 1<<15 {
			addr = addr[:1<<15]
		}
		c := Command{ClientID: id, Seq: seq, ReplyTo: transport.Addr(addr), Op: op}
		got, err := DecodeCommand(c.Encode())
		if err != nil {
			return false
		}
		return got.ClientID == id && got.Seq == seq &&
			got.ReplyTo == transport.Addr(addr) && bytes.Equal(got.Op, op)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCommandDecodeErrors(t *testing.T) {
	if _, err := DecodeCommand(nil); err == nil {
		t.Fatal("nil should fail")
	}
	if _, err := DecodeCommand(make([]byte, 17)); err == nil {
		t.Fatal("short should fail")
	}
	// Address length pointing past the end.
	b := make([]byte, 18)
	b[16] = 0xFF
	b[17] = 0xFF
	if _, err := DecodeCommand(b); err == nil {
		t.Fatal("overlong addr should fail")
	}
}

func TestReplicaStateCodec(t *testing.T) {
	dedup := map[uint64]clientEntry{
		1: {seq: 5, bits: 0b1011, result: []byte("r1")},
		9: {seq: 2, bits: 1, result: nil},
	}
	enc := encodeReplicaState(encodeDedup(dedup), encodeLeaseTable(leaseTable{}), []byte("sm-state"))
	dRaw, leaseRaw, sm, err := decodeReplicaState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(sm) != "sm-state" {
		t.Fatalf("sm = %q", sm)
	}
	got, err := decodeDedup(dRaw)
	if err != nil || len(got) != 2 || got[1].seq != 5 || got[1].bits != 0b1011 || string(got[1].result) != "r1" || got[9].seq != 2 {
		t.Fatalf("dedup = %+v err=%v", got, err)
	}
	if _, err := decodeDedup(dRaw[:len(dRaw)-1]); err == nil {
		t.Fatal("truncated dedup entry should fail")
	}
	if lt, ok := decodeLeaseTable(leaseRaw); !ok || lt.active || lt.holder != 0 {
		t.Fatalf("lease = %+v ok=%v", lt, ok)
	}
	if _, _, _, err := decodeReplicaState([]byte{0, 0}); err == nil {
		t.Fatal("short state should fail")
	}
}

// TestDedupWindowCrossRingInversion covers the executed-sequence window:
// a client's commands can reach a replica over several rings, and the
// deterministic merge may deliver a later sequence before an earlier one.
// The earlier command must still execute exactly once, while genuine
// retransmitted duplicates stay suppressed.
func TestDedupWindowCrossRingInversion(t *testing.T) {
	var e clientEntry
	// Seq 6 (e.g. a partition-ring insert) delivered first.
	if e.executed(6) {
		t.Fatal("fresh seq 6 marked executed")
	}
	e = e.record(6, []byte("r6"))
	// Seq 5 (e.g. the global-ring split commit) delivered after: inverted,
	// never executed here — must run.
	if e.executed(5) {
		t.Fatal("inverted seq 5 swallowed as duplicate")
	}
	e = e.record(5, []byte("r5"))
	// Both are now duplicates; the cached result is the highest seq's.
	if !e.executed(5) || !e.executed(6) {
		t.Fatal("executed seqs not marked")
	}
	if string(e.result) != "r6" {
		t.Fatalf("cached result = %q", e.result)
	}
	// Far-future seq resets the window; ancient seqs count as executed.
	e = e.record(200, []byte("r200"))
	if e.executed(199) {
		t.Fatal("unseen seq 199 inside window marked executed")
	}
	if !e.executed(100) {
		t.Fatal("seq beyond the window should count as executed")
	}
	if !e.executed(200) || e.seq != 200 {
		t.Fatalf("entry = %+v", e)
	}
}
