package smr

import (
	"bytes"
	"testing"
	"time"

	"mrp/internal/msg"
)

// waitExecuted polls until every replica has executed at least n commands.
func waitExecuted(t *testing.T, c *smrCluster, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, r := range c.replicas {
			if r.Executed() < n {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("executed = %d/%d/%d, want >= %d everywhere",
				c.replicas[0].Executed(), c.replicas[1].Executed(), c.replicas[2].Executed(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRetryInsideBatchExactlyOnce is the ambiguous-timeout regression for
// batching: a command's first attempt rides a batch (mid-batch, between
// two other clients' commands), the response is lost, and the client
// retries the SAME sequence directly. The batch proposal travels under a
// batch identity (batchSeqBit) — not the command's (proposer, seq) — so the
// coordinator cannot dedup the retry; the replicas' executed-window must.
// The retry must return the original cached result and the state machine
// must have executed the command exactly once.
func TestRetryInsideBatchExactlyOnce(t *testing.T) {
	c := newSMRCluster(t)
	cl := c.client(t, 5000)
	seq := cl.Reserve()

	// The "first attempt": the command lands mid-batch, as if a batching
	// proposer had packed it with two commands of another client. ReplyTo
	// points at the real client, but its pending table has no entry yet, so
	// the original responses are dropped — an ambiguous timeout.
	target := Command{ClientID: cl.ID(), Seq: seq, ReplyTo: cl.cfg.Endpoint.Addr(), Op: setOp("t", "orig")}
	batch := EncodeBatch([][]byte{
		Command{ClientID: 6000, Seq: 1, Op: setOp("f", "1")}.Encode(),
		target.Encode(),
		Command{ClientID: 6000, Seq: 2, Op: setOp("f", "2")}.Encode(),
	})
	ep := c.net.Endpoint("raw-batcher")
	if err := ep.Send(c.addrs[0], &msg.Proposal{
		Ring:       1,
		ProposerID: msg.NodeID(cl.ID()),
		Seq:        batchSeqBit | 1,
		Payload:    batch,
	}); err != nil {
		t.Fatal(err)
	}
	waitExecuted(t, c, 3)

	// The retry: same sequence, same op, through the normal client path.
	// The replicas see a duplicate of their dedup head for this client and
	// answer from the cached result — "ok:2", the target's position inside
	// the batch — without re-executing.
	res, err := cl.ExecuteGatherAt(seq, []msg.RingID{1}, setOp("t", "orig"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res[0]) != "ok:2" {
		t.Fatalf("retry result = %q, want the cached mid-batch result \"ok:2\"", res[0])
	}
	// Let the retried proposal reach every replica, then confirm nobody
	// re-executed it.
	time.Sleep(200 * time.Millisecond)
	for i, r := range c.replicas {
		if got := r.Executed(); got != 3 {
			t.Fatalf("replica %d executed %d commands, want 3 (exactly-once)", i, got)
		}
	}
	if got := c.sms[0].Execute(getOp("t")); string(got) != "orig" {
		t.Fatalf("state = %q, want %q", got, "orig")
	}
}

// TestRetryInsideBatchInvertedArrival is the batched variant of the
// inverted-arrival regression: the client's LATER sequence is ordered
// first (its retry won the race), and the earlier sequence only lands
// afterwards — mid-batch. The earlier command must still execute (its
// window bit is unset), and a subsequent direct retransmission of it must
// be absorbed by the executed-window, never re-executed.
func TestRetryInsideBatchInvertedArrival(t *testing.T) {
	c := newSMRCluster(t)
	ep := c.net.Endpoint("raw-inverted")

	// Step 1: seq 2 arrives and executes first.
	if err := ep.Send(c.addrs[0], &msg.Proposal{
		Ring: 1, ProposerID: 7000, Seq: 2,
		Payload: Command{ClientID: 7000, Seq: 2, Op: setOp("inv", "second")}.Encode(),
	}); err != nil {
		t.Fatal(err)
	}
	waitExecuted(t, c, 1)

	// Step 2: seq 1 finally gets ordered, mid-batch between another
	// client's commands. Inside the inversion window, so it executes.
	batch := EncodeBatch([][]byte{
		Command{ClientID: 8000, Seq: 1, Op: setOp("g", "1")}.Encode(),
		Command{ClientID: 7000, Seq: 1, Op: setOp("inv", "first")}.Encode(),
		Command{ClientID: 8000, Seq: 2, Op: setOp("g", "2")}.Encode(),
	})
	if err := ep.Send(c.addrs[0], &msg.Proposal{
		Ring: 1, ProposerID: 7000, Seq: batchSeqBit | 1, Payload: batch,
	}); err != nil {
		t.Fatal(err)
	}
	waitExecuted(t, c, 4)

	// Step 3: a straggling direct retransmission of seq 1. Its window bit
	// is now set; the replicas must swallow it.
	if err := ep.Send(c.addrs[1], &msg.Proposal{
		Ring: 1, ProposerID: 7000, Seq: 1,
		Payload: Command{ClientID: 7000, Seq: 1, Op: setOp("inv", "first")}.Encode(),
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	for i, r := range c.replicas {
		if got := r.Executed(); got != 4 {
			t.Fatalf("replica %d executed %d commands, want 4 (exactly-once under inversion)", i, got)
		}
	}
	// Delivery order is the authority: seq 2 then seq 1, so the register
	// holds seq 1's write — on every replica identically.
	for i, sm := range c.sms {
		if got := sm.Execute(getOp("inv")); string(got) != "first" {
			t.Fatalf("replica %d state = %q, want %q", i, got, "first")
		}
	}
	s0 := c.sms[0].Snapshot()
	for i := 1; i < 3; i++ {
		if !bytes.Equal(c.sms[i].Snapshot(), s0) {
			t.Fatalf("replica %d diverged from replica 0", i)
		}
	}
}
