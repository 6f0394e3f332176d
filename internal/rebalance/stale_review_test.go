package rebalance

import (
	"testing"

	"mrp/internal/ycsb"
)

// TestSplitOtherPartitionAfterMerge is the regression test for the
// stale-mapping bug: split p1 -> p2, merge p2 back into p1, then split
// partition 0. Partition 0's replicas saw neither merge command (both
// rode rings they don't subscribe to), so deriving the post-split mapping
// locally from their view — still the three-partition one — used to fail
// the next-free-index check and time the prepare out. The ordered
// prepare/commit now carry the authoritative mapping instead.
func TestSplitOtherPartitionAfterMerge(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	newPart, err := coord.SplitPartition(1, ycsb.Key(750))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.MergePartitions(1, newPart); err != nil {
		t.Fatal(err)
	}
	again, err := coord.SplitPartition(0, ycsb.Key(200))
	if err != nil {
		t.Fatalf("split of partition 0 after merge: %v", err)
	}

	// The moved range serves from the new partition and nothing was lost.
	cl := d.NewClient()
	defer cl.Close()
	for _, i := range []int{100, 200, 350, 600, 800} {
		if _, err := cl.Read(ycsb.Key(i)); err != nil {
			t.Fatalf("read %s after the third reconfiguration: %v", ycsb.Key(i), err)
		}
	}
	if p := d.Partitioner().PartitionOf(ycsb.Key(350)); p != again {
		t.Fatalf("moved key owned by partition %d, want %d", p, again)
	}
}
