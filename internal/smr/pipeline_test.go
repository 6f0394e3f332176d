package smr

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/storage"
)

// slowSM wraps a StateMachine with a fixed per-command delay, making
// execution the bottleneck, so the ring loops that deliver wait on it.
type slowSM struct {
	inner StateMachine
	delay time.Duration
}

func (s *slowSM) Execute(op []byte) []byte {
	time.Sleep(s.delay)
	return s.inner.Execute(op)
}
func (s *slowSM) Snapshot() []byte { return s.inner.Snapshot() }
func (s *slowSM) Restore(b []byte) { s.inner.Restore(b) }

// TestPipelineBackpressure runs a cluster whose state machines are slow,
// so execution holds back the ring loops that deliver: no delivery may be
// dropped, and every command must still complete and converge.
func TestPipelineBackpressure(t *testing.T) {
	c := newSMRClusterOpt(t, func(i int, rc *ReplicaConfig) {
		rc.SM = &slowSM{inner: rc.SM, delay: 300 * time.Microsecond}
	})
	const nClients, perClient = 3, 15
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		cl := c.client(t, uint64(9000+ci))
		wg.Add(1)
		go func(ci int, cl *Client) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if _, err := cl.Execute(1, setOp(fmt.Sprintf("p%d-%d", ci, k), "v")); err != nil {
					t.Errorf("client %d: %v", ci, err)
					return
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s0, s1, s2 := c.sms[0].Snapshot(), c.sms[1].Snapshot(), c.sms[2].Snapshot()
		if bytes.Equal(s0, s1) && bytes.Equal(s1, s2) && c.replicas[2].Executed() == nClients*perClient {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverged under backpressure (executed %d/%d/%d)",
				c.replicas[0].Executed(), c.replicas[1].Executed(), c.replicas[2].Executed())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// feedBatches sends n four-command batch proposals for client 42 through
// a raw endpoint, calling after(sent) once each batch is sent; it stops
// at the first error after returns.
func feedBatches(t *testing.T, c *smrCluster, n int, after func(sent int) error) {
	t.Helper()
	ep := c.net.Endpoint("batch-feeder")
	for k := 0; k < n; k++ {
		var payloads [][]byte
		for j := 1; j <= 4; j++ {
			seq := uint64(4*k + j)
			payloads = append(payloads, Command{ClientID: 42, Seq: seq, Op: setOp("k", fmt.Sprint(seq))}.Encode())
		}
		if err := ep.Send(c.addrs[0], &msg.Proposal{
			Ring:       1,
			ProposerID: 42,
			Seq:        batchSeqBit | uint64(k+1),
			Payload:    EncodeBatch(payloads),
		}); err != nil {
			t.Errorf("feed batch %d: %v", k, err)
			return
		}
		if err := after(k + 1); err != nil {
			t.Error(err)
			return
		}
	}
}

// pace is a feedBatches callback that waits d after every batch.
func pace(d time.Duration) func(int) error {
	return func(int) error {
		time.Sleep(d)
		return nil
	}
}

// TestPipelineCheckpointBatchAligned hammers Checkpoint while the
// replica applies a stream of four-command batches. One
// delivered entry is one atomic unit of execution, so NO checkpoint may
// ever observe a partially applied batch: client 42's dedup head must sit
// on a batch boundary (seq ≡ 0 mod 4) in every checkpoint taken, and the
// trailing window bits must show the whole last batch executed.
//
// The feeder sends a batch only once the previous one has executed, so
// the stream cannot finish before the loop checkpoints it however slowly
// the ring runs (under -race it may order nothing for milliseconds), and
// it takes one checkpoint itself at the midpoint, so every run checks one
// mid-stream checkpoint.
func TestPipelineCheckpointBatchAligned(t *testing.T) {
	c := newSMRCluster(t)
	const batches = 60
	rep := c.replicas[0]
	var checked atomic.Int32
	aligned := func(ck storage.Checkpoint) error {
		dedupRaw, _, _, err := decodeReplicaState(ck.State)
		if err != nil {
			return err
		}
		dedup, err := decodeDedup(dedupRaw)
		if err != nil {
			return err
		}
		e, ok := dedup[42]
		if !ok {
			return nil
		}
		checked.Add(1)
		if e.seq%4 != 0 {
			return fmt.Errorf("checkpoint observed mid-batch: client 42 head seq = %d", e.seq)
		}
		if e.seq >= 4 && e.bits&0xF != 0xF {
			return fmt.Errorf("checkpoint head seq %d but last batch incomplete: bits = %#x", e.seq, e.bits)
		}
		return nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		feedBatches(t, c, batches, func(sent int) error {
			deadline := time.Now().Add(5 * time.Second)
			for rep.Executed() < uint64(4*sent) {
				if time.Now().After(deadline) {
					return fmt.Errorf("batch %d never executed: executed = %d", sent, rep.Executed())
				}
				time.Sleep(100 * time.Microsecond)
			}
			if sent != batches/2 {
				return nil
			}
			rep.Checkpoint()
			ck, ok := storageLoad(rep)
			if !ok {
				return fmt.Errorf("no checkpoint at the midpoint")
			}
			return aligned(ck)
		})
	}()
	for {
		rep.Checkpoint()
		if ck, ok := storageLoad(rep); ok {
			if err := aligned(ck); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-done:
			// Drain: wait for the full stream, then one final aligned check.
			deadline := time.Now().Add(5 * time.Second)
			for rep.Executed() < 4*batches {
				if time.Now().After(deadline) {
					t.Fatalf("executed = %d, want %d", rep.Executed(), 4*batches)
				}
				time.Sleep(2 * time.Millisecond)
			}
			rep.Checkpoint()
			ck, ok := storageLoad(rep)
			if !ok {
				t.Fatal("no final checkpoint")
			}
			_, dedupRaw := mustDecodeState(t, ck.State)
			if e := dedupRaw[42]; e.seq != 4*batches {
				t.Fatalf("final head seq = %d, want %d", e.seq, 4*batches)
			}
			if checked.Load() == 0 {
				t.Fatal("no mid-stream checkpoint observed client 42")
			}
			return
		default:
		}
	}
}

func mustDecodeState(t *testing.T, state []byte) ([]byte, map[uint64]clientEntry) {
	t.Helper()
	dedupRaw, _, smState, err := decodeReplicaState(state)
	if err != nil {
		t.Fatalf("decode checkpoint state: %v", err)
	}
	dedup, err := decodeDedup(dedupRaw)
	if err != nil {
		t.Fatalf("decode checkpoint dedup table: %v", err)
	}
	return smState, dedup
}

// TestPipelineStopMidBatchStream stops a replica while it applies a
// stream. Stop must return promptly (it waits only for the delivery in
// progress), the in-flight entry must have been applied atomically — the
// dedup head still sits on a batch boundary — and checkpoint/snapshot on
// the stopped replica must keep working.
func TestPipelineStopMidBatchStream(t *testing.T) {
	c := newSMRClusterOpt(t, func(i int, rc *ReplicaConfig) {
		if i == 0 {
			rc.SM = &slowSM{inner: rc.SM, delay: 200 * time.Microsecond}
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		feedBatches(t, c, 40, pace(100*time.Microsecond))
	}()
	rep := c.replicas[0]
	deadline := time.Now().Add(5 * time.Second)
	for rep.Executed() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never got going: executed = %d", rep.Executed())
		}
		time.Sleep(100 * time.Microsecond)
	}
	stopped := make(chan struct{})
	go func() { rep.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung on a mid-stream replica")
	}
	<-done
	// Stop let the in-flight entry finish: whatever prefix was applied
	// ends on a batch boundary.
	rep.Checkpoint()
	ck, ok := storageLoad(rep)
	if !ok {
		t.Fatal("stopped replica cannot checkpoint")
	}
	_, dedupRaw := mustDecodeState(t, ck.State)
	e, ok := dedupRaw[42]
	if !ok || e.seq == 0 {
		t.Fatalf("stopped replica applied nothing for client 42 (executed %d)", rep.Executed())
	}
	if e.seq%4 != 0 {
		t.Fatalf("stop tore a batch: client 42 head seq = %d", e.seq)
	}
	if snap := rep.StateSnapshot(); len(snap) == 0 {
		t.Fatal("stopped replica returned an empty snapshot")
	}
	// The survivors keep executing the rest of the stream.
	deadline = time.Now().Add(5 * time.Second)
	for c.replicas[1].Executed() < 160 {
		if time.Now().After(deadline) {
			t.Fatalf("survivor executed = %d, want 160", c.replicas[1].Executed())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecoverAcrossBatchBoundary replays a crash/recover cycle whose
// checkpoint lands between two batches of the same client: a replica
// applies a prefix of a batched delivery stream, checkpoints, "crashes",
// and a fresh replica installs the checkpoint and is fed the FULL stream
// again. The applied-tuple watermark skips the covered prefix, the dedup
// window absorbs any overlap, and the recovered state must be
// byte-identical to a reference replica that lived through the whole
// stream — batch cuts included.
func TestRecoverAcrossBatchBoundary(t *testing.T) {
	// The stream: 20 entries on one ring, alternating a four-command batch
	// of client 42 and a single command of client 43, so the checkpoint
	// boundary falls between batches of a client whose run continues.
	var stream []multiring.Delivery
	var inst msg.Instance
	var seq42, seq43 uint64
	for k := 0; k < 10; k++ {
		var payloads [][]byte
		for j := 0; j < 4; j++ {
			seq42++
			payloads = append(payloads, Command{ClientID: 42, Seq: seq42, Op: setOp("a", fmt.Sprint(seq42))}.Encode())
		}
		inst++
		stream = append(stream, multiring.Delivery{
			Ring: 1, Instance: inst, Entry: msg.Entry{Data: EncodeBatch(payloads)}, EndOfInstance: true,
		})
		seq43++
		inst++
		stream = append(stream, multiring.Delivery{
			Ring: 1, Instance: inst, Entry: msg.Entry{Data: Command{ClientID: 43, Seq: seq43, Op: setOp("b", fmt.Sprint(seq43))}.Encode()}, EndOfInstance: true,
		})
	}

	run := func(r *Replica, ds []multiring.Delivery) {
		for _, d := range ds {
			r.apply(d)
		}
	}

	// Reference: the whole stream, no crash.
	refCk := storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk))
	ref := NewReplica(ReplicaConfig{SM: newRegSM(), Ckpt: refCk})
	run(ref, stream)
	ref.Checkpoint()
	want, ok := refCk.Load()
	if !ok {
		t.Fatal("reference saved no checkpoint")
	}

	// Crash: apply 7 entries (ends mid-run for both clients — client 42
	// has 16 of 40 commands in), checkpoint, die.
	crashCk := storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk))
	crash := NewReplica(ReplicaConfig{SM: newRegSM(), Ckpt: crashCk})
	run(crash, stream[:7])
	crash.Checkpoint()
	ck, ok := crashCk.Load()
	if !ok {
		t.Fatal("crashing replica saved no checkpoint")
	}
	if _, dedupRaw := mustDecodeState(t, ck.State); dedupRaw[42].seq%4 != 0 {
		t.Fatalf("prefix checkpoint off batch boundary: head = %d", dedupRaw[42].seq)
	}

	// Recover: fresh replica, install, then replay the FULL stream — the
	// recovery path re-delivers from the start, overlapping the prefix.
	recCk := storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk))
	rec := NewReplica(ReplicaConfig{SM: newRegSM(), Ckpt: recCk})
	if err := rec.InstallCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	run(rec, stream)
	// And a straggling re-delivery of a mid-prefix batch for good measure.
	run(rec, stream[2:4])
	rec.Checkpoint()
	got, ok := recCk.Load()
	if !ok {
		t.Fatal("recovered replica saved no checkpoint")
	}
	if !bytes.Equal(got.State, want.State) {
		t.Fatalf("recovered state diverged from reference (%d vs %d bytes)", len(got.State), len(want.State))
	}
	wantExec := countCmds(stream) - countCmds(stream[:7])
	if got := rec.Executed(); got != wantExec {
		t.Fatalf("recovered replica executed %d commands, want %d (stream minus checkpointed prefix)", got, wantExec)
	}
}

// countCmds counts the commands carried by a delivery stream.
func countCmds(ds []multiring.Delivery) uint64 {
	var n uint64
	for _, d := range ds {
		if IsBatch(d.Entry.Data) {
			cmds, _ := DecodeBatch(d.Entry.Data)
			n += uint64(len(cmds))
		} else {
			n++
		}
	}
	return n
}
