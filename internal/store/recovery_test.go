package store

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mrp/internal/netsim"
	"mrp/internal/storage"
)

// deployRangeStore deploys a two-partition range-partitioned store
// (boundary "m") suited for split-then-recover scenarios.
func deployRangeStore(t *testing.T, global bool) *Deployment {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	d, err := Deploy(DeployConfig{
		Net:         net,
		Partitions:  2,
		Replicas:    3,
		GlobalRing:  global,
		Partitioner: NewRangePartitioner([]string{"m"}),
		StorageMode: storage.InMemory,
		// Rate leveling keeps the merge of busy partition rings with the
		// mostly idle global ring advancing (Section 4).
		SkipInterval: 5 * time.Millisecond,
		SkipRate:     9000,
		RetryTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Stop()
		net.Close()
	})
	return d
}

// liveSplit drives the six-step online split protocol inline (the same
// sequence rebalance.Coordinator orders), carving [splitKey, hi) out of
// partition src, and returns the new partition's index.
func liveSplit(t *testing.T, d *Deployment, cl *Client, src int, splitKey string) int {
	t.Helper()
	cur, ok := d.Partitioner().(*RangePartitioner)
	if !ok {
		t.Fatalf("not range partitioned: %T", d.Partitioner())
	}
	epoch := d.Epoch() + 1
	newPart := cur.N()
	next, err := cur.Split(splitKey, newPart)
	if err != nil {
		t.Fatal(err)
	}
	ring, addrs, err := d.AddPartition(next, newPart, epoch)
	if err != nil {
		t.Fatal(err)
	}
	cl.AddRoute(ring, addrs)
	via := d.GlobalRingID()
	if via == 0 || !d.PartitionOnGlobal(src) {
		via = d.PartitionRing(src)
	}
	if err := cl.RevokeLease(via); err != nil {
		t.Fatal(err)
	}
	moved, err := cl.PrepareSplit(via, src, splitKey, newPart, epoch, next)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(moved); lo += 64 {
		hi := lo + 64
		if hi > len(moved) {
			hi = len(moved)
		}
		if err := cl.MigrateChunk(ring, newPart, epoch, moved[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.ActivatePartition(ring, newPart, epoch); err != nil {
		t.Fatal(err)
	}
	d.AdoptReconfig(epoch, next)
	if err := cl.CommitSplit(via, src, epoch); err != nil {
		t.Fatal(err)
	}
	return newPart
}

// waitConverged polls until two replicas of a partition have identical
// state-machine snapshots at the wanted schema epoch (they can transiently
// match at an older epoch while an ordered commit is still in flight),
// then returns a scratch SM restored from that snapshot: assertions
// against it cannot race with the live replica goroutines still applying
// rate-leveling deliveries.
func waitConverged(t *testing.T, d *Deployment, p, ra, rb int, wantEpoch uint64) *SM {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		sa := d.ReplicaAt(p, ra).Replica.StateSnapshot()
		sb := d.ReplicaAt(p, rb).Replica.StateSnapshot()
		if bytes.Equal(sa, sb) {
			scratch := NewSM(p, NewHashPartitioner(1))
			scratch.Restore(sa)
			if scratch.Epoch() == wantEpoch {
				return scratch
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas %d and %d of partition %d did not converge at epoch %d:\n%s\n%s",
				ra, rb, p, wantEpoch, replicaProgress(d, p, ra, sa), replicaProgress(d, p, rb, sb))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// replicaProgress describes how far one replica got, so a replica that
// stalled names the ring it stalled on: its applied tuple, its executed
// count, and the schema epoch and warm-up state of its snapshot.
func replicaProgress(d *Deployment, p, r int, snap []byte) string {
	rep := d.ReplicaAt(p, r).Replica
	sm := NewSM(p, NewHashPartitioner(1))
	sm.Restore(snap)
	return fmt.Sprintf("  replica %d: applied %v, executed %d, epoch %d, warming %t",
		r, rep.AppliedTuple(), rep.Executed(), sm.Epoch(), sm.Warming())
}

// TestRecoverSplitPartitionReplica crashes and recovers a replica of a
// partition created by a live split. No replica of the split partition has
// ever checkpointed, so recovery is a cold start from the partition's
// deterministic birth state: the replica rejoins the split's ring
// and replays everything — migration chunks, activation, and post-split
// client commands — from the acceptors.
func TestRecoverSplitPartitionReplica(t *testing.T) {
	d := deployRangeStore(t, true)
	cl := d.NewClient()
	defer cl.Close()
	for i := 0; i < 10; i++ {
		for _, prefix := range []string{"a", "n", "t"} {
			if err := cl.Insert(fmt.Sprintf("%s%02d", prefix, i), []byte("v0")); err != nil {
				t.Fatal(err)
			}
		}
	}

	newPart := liveSplit(t, d, cl, 1, "t")
	if newPart != 2 {
		t.Fatalf("new partition = %d", newPart)
	}

	d.CrashReplica(newPart, 1)
	// The split partition keeps serving on its surviving majority.
	for i := 10; i < 15; i++ {
		if err := cl.Insert(fmt.Sprintf("t%02d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}

	if err := d.RecoverReplica(newPart, 1); err != nil {
		t.Fatalf("recover split-partition replica: %v", err)
	}
	for i := 15; i < 18; i++ {
		if err := cl.Insert(fmt.Sprintf("t%02d", i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	rec := waitConverged(t, d, newPart, 0, 1, 2)
	if rec.Epoch() != 2 || rec.Warming() {
		t.Fatalf("recovered SM: epoch=%d warming=%v", rec.Epoch(), rec.Warming())
	}
	// The recovered replica serves reads for its range and redirects keys
	// it does not own under the current mapping.
	if res := execOp(t, rec, op{kind: opRead, epoch: 2, key: "t00"}); res.status != statusOK || string(res.value) != "v0" {
		t.Fatalf("owned read on recovered replica = %+v", res)
	}
	if res := execOp(t, rec, op{kind: opRead, epoch: 2, key: "n00"}); res.status != statusWrongEpoch {
		t.Fatalf("migrated-away read on recovered replica = %+v", res)
	}

	// With another replica down, quorum on the split ring depends on the
	// recovered one: commands on the moved range still complete.
	d.CrashReplica(newPart, 2)
	if err := cl.Insert("t90", []byte("after")); err != nil {
		t.Fatalf("write needing the recovered replica's vote: %v", err)
	}
	if v, err := cl.Read("t90"); err != nil || string(v) != "after" {
		t.Fatalf("read needing the recovered replica: %q, %v", v, err)
	}
}

// TestRecoverSplitPartitionReplicaFromCheckpoint covers the checkpoint
// transfer path on a split partition's ring: a surviving peer of the
// split partition has checkpointed (at the post-split epoch), so the
// recovering replica installs that state and rejoins its ring at the
// recovered frontier instead of replaying from scratch.
func TestRecoverSplitPartitionReplicaFromCheckpoint(t *testing.T) {
	d := deployRangeStore(t, true)
	cl := d.NewClient()
	defer cl.Close()
	for i := 0; i < 10; i++ {
		if err := cl.Insert(fmt.Sprintf("t%02d", i), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	newPart := liveSplit(t, d, cl, 1, "t")

	d.CrashReplica(newPart, 2)
	for i := 10; i < 15; i++ {
		if err := cl.Insert(fmt.Sprintf("t%02d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	// Both surviving peers checkpoint; Q_R = 2 of {self, peer, peer}.
	if e := d.ReplicaAt(newPart, 0).SM.Epoch(); e != 2 {
		t.Fatalf("peer epoch before checkpoint = %d, want 2", e)
	}
	d.ReplicaAt(newPart, 0).Replica.Checkpoint()
	d.ReplicaAt(newPart, 1).Replica.Checkpoint()
	if _, ok := d.ReplicaAt(newPart, 0).Ckpt.Load(); !ok {
		t.Fatal("peer checkpoint not saved")
	}

	if err := d.RecoverReplica(newPart, 2); err != nil {
		t.Fatalf("recover from checkpoint: %v", err)
	}
	if err := cl.Insert("t99", []byte("post")); err != nil {
		t.Fatal(err)
	}
	rec := waitConverged(t, d, newPart, 0, 2, 2)
	if rec.Epoch() != 2 || rec.Warming() {
		t.Fatalf("recovered SM: epoch=%d warming=%v", rec.Epoch(), rec.Warming())
	}
}

// TestRecoverSeedReplicaStaleCheckpoint is the stale-schema regression: a
// seed replica checkpoints, crashes, misses a live split entirely, and
// recovers from its own pre-split (epoch 1) checkpoint. Ring replay must
// deliver the split commands so the replica learns the new schema, drops
// the moved range, and redirects for migrated keys.
func TestRecoverSeedReplicaStaleCheckpoint(t *testing.T) {
	d := deployRangeStore(t, true)
	cl := d.NewClient()
	defer cl.Close()
	for i := 0; i < 10; i++ {
		for _, prefix := range []string{"n", "t"} {
			if err := cl.Insert(fmt.Sprintf("%s%02d", prefix, i), []byte("v0")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e := d.ReplicaAt(1, 2).SM.Epoch(); e != 1 {
		t.Fatalf("epoch before the pre-split checkpoint = %d, want 1", e)
	}
	d.ReplicaAt(1, 2).Replica.Checkpoint()
	if _, ok := d.ReplicaAt(1, 2).Ckpt.Load(); !ok {
		t.Fatal("pre-split checkpoint not saved")
	}
	d.CrashReplica(1, 2)

	newPart := liveSplit(t, d, cl, 1, "t")
	if newPart != 2 {
		t.Fatalf("new partition = %d", newPart)
	}
	for i := 10; i < 15; i++ {
		if err := cl.Insert(fmt.Sprintf("n%02d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}

	if err := d.RecoverReplica(1, 2); err != nil {
		t.Fatalf("recover with stale checkpoint: %v", err)
	}
	rec := waitConverged(t, d, 1, 0, 2, 2)
	if rec.Epoch() != 2 {
		t.Fatalf("recovered replica did not learn the new schema: epoch=%d", rec.Epoch())
	}
	if _, still := rec.Data().Get("t00"); still {
		t.Fatal("recovered replica kept the migrated range")
	}
	if res := execOp(t, rec, op{kind: opRead, epoch: 2, key: "n00"}); res.status != statusOK {
		t.Fatalf("kept read on recovered replica = %+v", res)
	}
	if res := execOp(t, rec, op{kind: opRead, epoch: 1, key: "t05"}); res.status != statusWrongEpoch || res.epoch != 2 {
		t.Fatalf("migrated read on recovered replica = %+v", res)
	}
}

// TestRecoverUncommittedSplitPartitionFails: a provisioned-but-uncommitted
// split partition is not part of any schema yet and must be rejected.
func TestRecoverUncommittedSplitPartitionFails(t *testing.T) {
	d := deployRangeStore(t, true)
	next, err := d.Partitioner().(*RangePartitioner).Split("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	part := 2
	_, _, err = d.AddPartition(next, part, d.Epoch()+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RecoverReplica(part, 0); err == nil {
		t.Fatal("recovery of an uncommitted split partition succeeded")
	}
	if err := d.RemovePartition(part); err != nil {
		t.Fatal(err)
	}
	if err := d.RecoverReplica(99, 0); err == nil {
		t.Fatal("recovery of a non-existent partition succeeded")
	}
}
