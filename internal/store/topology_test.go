package store

import (
	"reflect"
	"testing"
	"time"

	"mrp/internal/cluster"
	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/ringpaxos"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// TestMembershipsRingOrderAndRoles pins the ring memberships that Deploy
// wires and RecoverReplica rejoins, and the client view built from the
// same partition table. Seed partition p sits on ring p+1, its replicas in
// replica order and each proposer, acceptor and learner, and on the global
// ring, whose nine members are listed partition-major with only each
// partition's first replica accepting. A split partition sits on its own
// ring only. The view withdraws a crashed lease holder and gives a
// merged-away index no ring and no proposers.
func TestMembershipsRingOrderAndRoles(t *testing.T) {
	const partitions, replicas = 3, 3
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	d, err := Deploy(DeployConfig{
		Net:          net,
		Partitions:   partitions,
		Replicas:     replicas,
		GlobalRing:   true,
		Partitioner:  NewRangePartitioner([]string{"g", "p"}),
		StorageMode:  storage.InMemory,
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
	if d.Epoch() != 1 || d.GlobalRingID() != 4 {
		t.Fatalf("fresh deployment: epoch %d, global ring %d", d.Epoch(), d.GlobalRingID())
	}

	memberships := func(p int) []cluster.Ring {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.memberships(p)
	}
	ownPeers := func(p int) []ringpaxos.Peer {
		var peers []ringpaxos.Peer
		for r := 0; r < replicas; r++ {
			peers = append(peers, ringpaxos.Peer{
				ID:    nodeIDFor(p, r),
				Addr:  d.cfg.AddrFor(p, r),
				Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
			})
		}
		return peers
	}
	var globalPeers []ringpaxos.Peer
	for p := 0; p < partitions; p++ {
		for r := 0; r < replicas; r++ {
			roles := ringpaxos.RoleProposer | ringpaxos.RoleLearner
			if r == 0 {
				roles |= ringpaxos.RoleAcceptor
			}
			globalPeers = append(globalPeers, ringpaxos.Peer{ID: nodeIDFor(p, r), Addr: d.cfg.AddrFor(p, r), Roles: roles})
		}
	}
	for p := 0; p < partitions; p++ {
		if ring := d.PartitionRing(p); ring != msg.RingID(p+1) || !d.PartitionOnGlobal(p) {
			t.Fatalf("seed partition %d: ring %d, on global ring %v", p, ring, d.PartitionOnGlobal(p))
		}
		ms := memberships(p)
		if len(ms) != 2 || ms[0].ID != msg.RingID(p+1) || ms[1].ID != d.GlobalRingID() {
			t.Fatalf("seed partition %d memberships = %+v", p, ms)
		}
		if !reflect.DeepEqual(ms[0].Peers, ownPeers(p)) {
			t.Fatalf("seed partition %d own ring peers = %+v", p, ms[0].Peers)
		}
		if !reflect.DeepEqual(ms[1].Peers, globalPeers) {
			t.Fatalf("seed partition %d global ring peers = %+v", p, ms[1].Peers)
		}
	}

	cl := d.NewClient()
	defer cl.Close()
	split := liveSplit(t, d, cl, 2, "t")
	splitRing := d.PartitionRing(split)
	if split != 3 || splitRing != 5 || d.PartitionOnGlobal(split) || d.Epoch() != 2 {
		t.Fatalf("split partition %d: ring %d, on global ring %v, epoch %d",
			split, splitRing, d.PartitionOnGlobal(split), d.Epoch())
	}
	if ms := memberships(split); len(ms) != 1 || ms[0].ID != splitRing || !reflect.DeepEqual(ms[0].Peers, ownPeers(split)) {
		t.Fatalf("split partition memberships = %+v", ms)
	}

	holder := leaseHolderIdx(replicas)
	leaseHint := func(p int) transport.Addr {
		v := d.currentView()
		return v.leaseHolderFor(p)
	}
	if a := leaseHint(0); a != d.cfg.AddrFor(0, holder) {
		t.Fatalf("lease hint of partition 0 = %q, want its holder", a)
	}
	d.CrashReplica(0, holder)
	if a := leaseHint(0); a != "" {
		t.Fatalf("lease hint of partition 0 = %q after its holder crashed", a)
	}

	// Merge the split partition into a second split-born neighbour, so its
	// index stays below the top of the index space as a tombstone.
	neighbour := liveSplit(t, d, cl, split, "w")
	liveMerge(t, d, cl, neighbour, split)
	v := d.currentView()
	if len(v.rings) != 5 || v.rings[split] != 0 || v.onGlobal[split] || v.leaseHolderFor(split) != "" {
		t.Fatalf("merged-away index %d in view: rings %v, onGlobal %v, lease hint %q",
			split, v.rings, v.onGlobal, v.leaseHolderFor(split))
	}
	if addrs, ok := v.proposers[splitRing]; ok {
		t.Fatalf("retired ring %d still has proposers %v", splitRing, addrs)
	}
}

// TestAdoptReconfigFencesConcurrentPublisher checks that the deployment
// adopts only the epoch right after its committed one: a second adopt of
// the same epoch (a concurrent publisher) and an adopt that skips an epoch
// are refused and change nothing.
func TestAdoptReconfigFencesConcurrentPublisher(t *testing.T) {
	d := testDeploy(t, false, 2)
	first, rival := NewHashPartitioner(2), NewHashPartitioner(2)
	if !d.AdoptReconfig(2, first) {
		t.Fatal("adopt of the next epoch refused")
	}
	if d.AdoptReconfig(2, rival) {
		t.Fatal("second adopt of epoch 2 succeeded")
	}
	if d.AdoptReconfig(4, rival) {
		t.Fatal("adopt skipping epoch 3 succeeded")
	}
	if d.Epoch() != 2 || d.Partitioner() != Partitioner(first) {
		t.Fatalf("refused adopts changed the deployment: epoch %d, partitioner %p (first %p)",
			d.Epoch(), d.Partitioner(), first)
	}
}

// TestRangeAssignmentValidation checks newRangePartitionerAssigned, which
// rebuilds a mapping from the bounds and assignment a snapshot records:
// a split partitioner's bounds and slot assignment rebuild a partitioner
// that agrees with it, duplicate assignments (a merge survivor owning
// several slots) are legal, and negative or short ones are refused.
func TestRangeAssignmentValidation(t *testing.T) {
	p := NewRangePartitioner([]string{"g", "p"})
	split, err := p.Split("j", 3)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := newRangePartitionerAssigned(split.Bounds(), split.Assignments())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "g", "i", "j", "o", "p", "z"} {
		if rebuilt.PartitionOf(k) != split.PartitionOf(k) {
			t.Fatalf("rebuilt partitioner disagrees for %q: %d vs %d",
				k, rebuilt.PartitionOf(k), split.PartitionOf(k))
		}
	}
	// The moved range went to the new index; old slots kept theirs.
	if split.PartitionOf("i") != 1 || split.PartitionOf("j") != 3 || split.PartitionOf("z") != 2 {
		t.Fatalf("split assignment wrong: %v / %v", split.Bounds(), split.Assignments())
	}
	if _, err := newRangePartitionerAssigned(split.Bounds(), []int{0, 0, 1, 2}); err != nil {
		t.Fatalf("merge-shaped assignment rejected: %v", err)
	}
	if _, err := newRangePartitionerAssigned(split.Bounds(), []int{0, -1, 1, 2}); err == nil {
		t.Fatal("negative assignment accepted")
	}
	if _, err := newRangePartitionerAssigned(split.Bounds(), []int{0, 1}); err == nil {
		t.Fatal("short assignment accepted")
	}
}

// TestPlanRecordAndLease checks the deployment's plan record and
// controller lease on a zero Deployment: PendingPlan hands out a copy,
// ClearPlan empties the record, only the lease holder can resign, and the
// lease passes on once it does.
func TestPlanRecordAndLease(t *testing.T) {
	var d Deployment
	if _, ok := d.PendingPlan(); ok {
		t.Fatal("zero deployment has a pending plan")
	}
	prev := NewRangePartitioner([]string{"m"})
	d.RecordPlan(Plan{Kind: PlanSplit, Epoch: 2, Donor: 1, Dest: 2, SplitKey: "t", Prev: prev})
	got, ok := d.PendingPlan()
	if !ok || got.Kind != PlanSplit || got.Epoch != 2 || got.Prev != prev {
		t.Fatalf("pending plan = %+v, %v", got, ok)
	}
	got.Published = true
	got.Epoch = 9
	if again, _ := d.PendingPlan(); again.Published || again.Epoch != 2 {
		t.Fatalf("changing the returned plan changed the record: %+v", again)
	}
	d.ClearPlan()
	if p, ok := d.PendingPlan(); ok {
		t.Fatalf("plan survived ClearPlan: %+v", p)
	}

	a, b := new(int), new(int)
	if !d.Lead(a) || !d.Lead(a) {
		t.Fatal("first owner did not take the free lease")
	}
	if d.Lead(b) {
		t.Fatal("second owner leads while the first holds the lease")
	}
	d.Resign(b)
	if !d.Lead(a) || d.Lead(b) {
		t.Fatal("resign by a non-owner released the lease")
	}
	d.Resign(a)
	if !d.Lead(b) || d.Lead(a) {
		t.Fatal("lease did not pass on after the owner resigned")
	}
}
