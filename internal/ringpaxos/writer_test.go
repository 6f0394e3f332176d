package ringpaxos

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// slowLog is a sync log whose every commit takes at least d.
func slowLog(d time.Duration) *storage.Log {
	return storage.NewLogOnDisk(storage.SyncSSD, slowDisk(d))
}

// slowDisk is a device whose every sync write takes at least d.
func slowDisk(d time.Duration) *storage.Disk {
	return storage.NewDisk(storage.DiskModel{SyncLatency: d})
}

// sentMsg is one message a recordingEndpoint saw leave.
type sentMsg struct {
	at time.Time
	m  msg.Message
}

// recordingEndpoint records every message a process sends, in order, and
// passes it on to the wrapped endpoint when there is one.
type recordingEndpoint struct {
	transport.Endpoint // nil: a bare process fed through In()

	mu   sync.Mutex
	sent []sentMsg
}

func (e *recordingEndpoint) Send(to transport.Addr, m msg.Message) error {
	e.mu.Lock()
	e.sent = append(e.sent, sentMsg{at: time.Now(), m: m})
	e.mu.Unlock()
	if e.Endpoint == nil {
		return nil
	}
	return e.Endpoint.Send(to, m)
}

func (e *recordingEndpoint) snapshot() []sentMsg {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]sentMsg(nil), e.sent...)
}

// waitSent waits until the endpoint has recorded at least n messages
// accepted by keep. The deadline is a liveness guard, not a latency bound.
func (e *recordingEndpoint) waitSent(t *testing.T, n int, keep func(msg.Message) bool) []sentMsg {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got []sentMsg
		for _, s := range e.snapshot() {
			if keep(s.m) {
				got = append(got, s)
			}
		}
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d matching messages, want %d", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// newBareProcess starts node self of a three-member ring coordinated by
// node 1, on log, with no network: the test feeds its In() channel and
// reads what it sends from the returned endpoint.
func newBareProcess(t *testing.T, self msg.NodeID, log *storage.Log) (*Process, *recordingEndpoint) {
	t.Helper()
	peers := make([]Peer, 3)
	for i := range peers {
		peers[i] = Peer{
			ID:    msg.NodeID(i + 1),
			Addr:  transport.Addr(fmt.Sprintf("node-%d", i)),
			Roles: RoleProposer | RoleAcceptor | RoleLearner,
		}
	}
	ep := &recordingEndpoint{}
	p, err := New(Config{
		Ring:         1,
		Self:         self,
		Peers:        peers,
		Coordinator:  1,
		Log:          log,
		RetryTimeout: time.Hour,
	}, ep)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	return p, ep
}

func valueOf(s string) msg.Value {
	return msg.Value{Batch: []msg.Entry{{Proposer: 1, Seq: 1, Data: []byte(s)}}}
}

// TestPersistBeforeSend: on a ring whose commits take 50 ms, neither the
// coordinator's Phase 2 nor an acceptor's forwarded vote for an instance
// leaves before that member's commit of the instance has returned.
func TestPersistBeforeSend(t *testing.T) {
	const commit = 50 * time.Millisecond
	eps := make([]*recordingEndpoint, 3)
	tr := newWrappedTestRing(t, 3, func(_ int, c *Config) {
		c.Log = slowLog(commit)
		c.RetryTimeout = 10 * time.Second // a 150 ms Phase 1 must not be retried
	}, func(i int, ep transport.Endpoint) transport.Endpoint {
		eps[i] = &recordingEndpoint{Endpoint: ep}
		return eps[i]
	})
	proposed := make(map[string]time.Time)
	for k := 0; k < 4; k++ {
		v := fmt.Sprintf("v%d", k)
		proposed[v] = time.Now()
		if err := tr.procs[0].Propose([]byte(v)); err != nil {
			t.Fatal(err)
		}
		tr.waitDelivered([]int{0, 1, 2}, k+1, 30*time.Second)
	}
	// firstPhase2 maps each payload to the first Phase 2 carrying it that
	// node i sent.
	firstPhase2 := func(i int) map[string]sentMsg {
		out := make(map[string]sentMsg)
		for _, s := range eps[i].snapshot() {
			if p2, ok := s.m.(*msg.Phase2); ok {
				v := string(p2.Value.Batch[0].Data)
				if _, seen := out[v]; !seen {
					out[v] = s
				}
			}
		}
		return out
	}
	coord, acc := firstPhase2(0), firstPhase2(1)
	for v, at := range proposed {
		c, ok := coord[v]
		if !ok {
			t.Fatalf("coordinator sent no Phase 2 for %s", v)
		}
		if d := c.at.Sub(at); d < commit {
			t.Errorf("%s: coordinator sent Phase 2 %v after Propose, before its %v commit", v, d, commit)
		}
		a, ok := acc[v]
		if !ok {
			t.Fatalf("acceptor sent no vote for %s", v)
		}
		if votes := a.m.(*msg.Phase2).Votes; votes != 2 {
			t.Errorf("%s: forwarded Votes = %d, want 2", v, votes)
		}
		if d := a.at.Sub(c.at); d < commit {
			t.Errorf("%s: acceptor forwarded its vote %v after receiving it, before its %v commit", v, d, commit)
		}
	}
}

// TestBatchCutWhenLogIdle: with the batch timer out of the way, proposals
// that arrive while the coordinator's first instance commits are decided
// together in the next instance.
func TestBatchCutWhenLogIdle(t *testing.T) {
	tr := newTestRing(t, 3, func(_ int, c *Config) {
		c.Log = slowLog(50 * time.Millisecond)
		c.BatchMaxBytes = 1 << 20
		c.BatchDelay = time.Hour
		c.RetryTimeout = 10 * time.Second
	})
	// Warm up: the first delivery waits out Phase 1.
	if err := tr.procs[0].Propose([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	tr.waitDelivered([]int{0, 1, 2}, 1, 30*time.Second)
	// The log is idle, so "a" is cut alone at once; b, c and d arrive while
	// its record commits.
	for _, v := range []string{"a", "b", "c", "d"} {
		if err := tr.procs[0].Propose([]byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1, 2}, 5, 30*time.Second)
	tr.assertPrefixAgreement([]int{0, 1, 2})

	var batches []string
	tr.logs[0].Range(1, tr.logs[0].HighWatermark()+1, func(_ msg.Instance, r storage.Record) {
		if r.Value.Skip {
			return
		}
		var b []string
		for _, e := range r.Value.Batch {
			b = append(b, string(e.Data))
		}
		batches = append(batches, strings.Join(b, ","))
	})
	want := []string{"warmup", "a", "b,c,d"}
	if strings.Join(batches, " | ") != strings.Join(want, " | ") {
		t.Fatalf("instances carry %q, want %q", batches, want)
	}
}

// TestPromiseCarriesCommittingVote: a Phase 1B of a higher ballot that
// arrives while this acceptor's vote is still committing reports the vote,
// and leaves after it.
func TestPromiseCarriesCommittingVote(t *testing.T) {
	p, ep := newBareProcess(t, 2, slowLog(50*time.Millisecond))
	b1 := ballotFor(1, 0, 3) // node 1's ballot
	b2 := ballotFor(1, 2, 3) // node 3 takes over
	v := valueOf("x")
	p.In() <- transport.Envelope{Msg: &msg.Phase2{Ring: 1, Ballot: b1, Instance: 5, Value: v, Votes: 1}}
	p.In() <- transport.Envelope{Msg: &msg.Phase1B{Ring: 1, Ballot: b2, From: 1, To: 100, Promises: 1}}

	sent := ep.waitSent(t, 2, func(msg.Message) bool { return true })
	vote, ok := sent[0].m.(*msg.Phase2)
	if !ok || vote.Votes != 2 || vote.Instance != 5 {
		t.Fatalf("first message sent = %#v, want the vote for instance 5", sent[0].m)
	}
	promise, ok := sent[1].m.(*msg.Phase1B)
	if !ok {
		t.Fatalf("second message sent = %#v, want the Phase 1B", sent[1].m)
	}
	if promise.Ballot != b2 || promise.Promises != 2 {
		t.Fatalf("Phase 1B ballot %d promises %d, want %d and 2", promise.Ballot, promise.Promises, b2)
	}
	if len(promise.Voted) != 1 || promise.Voted[0].Instance != 5 || promise.Voted[0].VRnd != b1 ||
		string(promise.Voted[0].Value.Batch[0].Data) != "x" {
		t.Fatalf("Phase 1B Voted = %+v, want instance 5 voted in ballot %d", promise.Voted, b1)
	}
}

// TestDecisionFlowsWhileCommitting: while a slow vote commits, the member
// still forwards a decision and delivers the instance it decides; the vote
// leaves afterwards.
func TestDecisionFlowsWhileCommitting(t *testing.T) {
	p, ep := newBareProcess(t, 2, slowLog(300*time.Millisecond))
	b1 := ballotFor(1, 0, 3)
	p.In() <- transport.Envelope{Msg: &msg.Phase2{Ring: 1, Ballot: b1, Instance: 2, Value: valueOf("slow"), Votes: 1}}
	p.In() <- transport.Envelope{Msg: &msg.Decision{Ring: 1, Instance: 1, Origin: 1, Value: valueOf("decided")}}

	select {
	case d := <-p.Decisions():
		if d.Instance != 1 || string(d.Value.Batch[0].Data) != "decided" {
			t.Fatalf("delivered %+v, want instance 1", d)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("instance 1 never delivered")
	}
	sent := ep.waitSent(t, 2, func(msg.Message) bool { return true })
	if _, ok := sent[0].m.(*msg.Decision); !ok {
		t.Fatalf("first message sent = %#v, want the forwarded decision", sent[0].m)
	}
	if vote, ok := sent[1].m.(*msg.Phase2); !ok || vote.Instance != 2 || vote.Votes != 2 {
		t.Fatalf("second message sent = %#v, want the vote for instance 2", sent[1].m)
	}
}

// TestSupersededPhase2NotSent: a coordinator that sees a higher ballot
// while its own Phase 2 commits does not send that Phase 2.
func TestSupersededPhase2NotSent(t *testing.T) {
	p, ep := newBareProcess(t, 1, slowLog(300*time.Millisecond))
	// Complete Phase 1 by hand: return the coordinator's Phase 1B with a
	// majority of promises.
	p1 := ep.waitSent(t, 1, func(m msg.Message) bool { _, ok := m.(*msg.Phase1B); return ok })[0].m.(*msg.Phase1B)
	back := *p1
	back.Promises = 2
	p.In() <- transport.Envelope{Msg: &back}
	if err := p.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// Once x's record is staged (so Phase 1 is done and x's Phase 2 waits
	// on its commit), node 3 takes over with a higher ballot.
	deadline := time.Now().Add(30 * time.Second)
	for p.cfg.Log.HighWatermark() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("x was never staged")
		}
		time.Sleep(time.Millisecond)
	}
	higher := ballotFor(1, 2, 3)
	p.In() <- transport.Envelope{Msg: &msg.Phase2{Ring: 1, Ballot: higher, Instance: 50, Value: valueOf("y"), Votes: 1}}

	// The vote for node 3's Phase 2 is queued behind x's record, so once
	// it leaves, x's Phase 2 has had its chance to.
	ep.waitSent(t, 1, func(m msg.Message) bool { p2, ok := m.(*msg.Phase2); return ok && p2.Ballot == higher })
	for _, s := range ep.snapshot() {
		if p2, ok := s.m.(*msg.Phase2); ok && p2.Ballot == p1.Ballot {
			t.Fatalf("superseded Phase 2 for instance %d was sent", p2.Instance)
		}
	}
}

// TestStopWaitsForWriter: Stop returns only after the log writer, caught
// in the middle of a commit, has exited.
func TestStopWaitsForWriter(t *testing.T) {
	disk := slowDisk(50 * time.Millisecond)
	p, _ := newBareProcess(t, 2, storage.NewLogOnDisk(storage.SyncSSD, disk))
	p.In() <- transport.Envelope{Msg: &msg.Phase2{Ring: 1, Ballot: ballotFor(1, 0, 3), Instance: 1, Value: valueOf("x"), Votes: 1}}
	// The device counts a sync write when it starts it, so from then on
	// the writer is inside the 50 ms commit.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if syncOps, _, _ := disk.Stats(); syncOps == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the vote never reached the log writer")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	select {
	case <-p.writer.exited:
	default:
		t.Fatal("log writer still running after Stop")
	}
}

// TestAsyncLogChargesDisk: a ring on async-mode logs has no writer, and
// still charges its device for every vote and promise, inline.
func TestAsyncLogChargesDisk(t *testing.T) {
	disks := make([]*storage.Disk, 3)
	tr := newTestRing(t, 3, func(i int, c *Config) {
		disks[i] = storage.NewDisk(storage.SSD)
		c.Log = storage.NewLogOnDisk(storage.AsyncSSD, disks[i])
	})
	for _, v := range []string{"a", "b", "c"} {
		if err := tr.procs[0].Propose([]byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	tr.waitDelivered([]int{0, 1, 2}, 3, 30*time.Second)
	for i, proc := range tr.procs {
		if proc.writer != nil {
			t.Fatalf("process %d on an async log has a log writer", i)
		}
		if _, async, _ := disks[i].Stats(); async == 0 {
			t.Fatalf("process %d: %d async writes on its device, want > 0", i, async)
		}
	}
}
