// Elasticity: the full bidirectional round trip — split a live MRP-Store
// partition onto a new ring served by fresh replicas, then merge it back
// and retire the ring — while a client keeps reading and writing
// throughout. The shrink path is the inverse of the paper's growth story:
// the replicas of a ring no longer needed stop, and the partitioning
// schema drops the partition without renumbering the survivors.
//
//	go run ./examples/elasticity
package main

import (
	"fmt"
	"time"

	"mrp"
)

func main() {
	net := mrp.NewSimNetwork(mrp.WithUniformLatency(50 * time.Microsecond))
	defer net.Close()

	// Two range partitions ("a-m" and "m-z"), three replicas each, plus a
	// global ring ordering cross-partition commands.
	st, err := mrp.DeployStore(mrp.StoreConfig{
		Net:          net,
		Partitions:   2,
		Replicas:     3,
		GlobalRing:   true,
		Partitioner:  mrp.NewRangePartitioner([]string{"m"}),
		SkipInterval: 2 * time.Millisecond,
		SkipRate:     500,
	})
	must(err)
	defer st.Stop()

	cl := st.NewClient()
	defer cl.Close()
	for _, k := range []string{"apple", "melon", "peach", "tomato"} {
		must(cl.Insert(k, []byte("crate of "+k)))
	}

	// Grow: split the upper partition at "s" onto a brand-new ring.
	rb, err := mrp.NewRebalancer(mrp.RebalanceConfig{
		Store:  st,
		OnStep: func(step string) { fmt.Println("  step:", step) },
	})
	must(err)
	defer rb.Close()
	fmt.Println("split [s, z) out of partition 1:")
	newPart, err := rb.SplitPartition(1, "s")
	must(err)
	splitRing := st.PartitionRing(newPart)
	fmt.Printf("epoch %d: %d partitions, %q served by partition %d on ring %d\n",
		st.Epoch(), st.Partitions(), "tomato", newPart, splitRing)
	must(cl.Update("tomato", []byte("fresh tomatoes")))

	// Shrink: merge the split-born partition back into its neighbor. Its
	// whole range is frozen, streamed onto the survivor's ring, the schema
	// drops the partition index, and the drained ring is retired —
	// every donor replica stops, and the ring ID returns to the allocator.
	fmt.Printf("merge partition %d back into partition 1:\n", newPart)
	must(rb.MergePartitions(1, newPart))
	part := st.Partitioner()
	fmt.Printf("epoch %d: %d partitions, %q served by partition %d again\n",
		st.Epoch(), st.Partitions(), "tomato", part.PartitionOf("tomato"))

	// The write survived the round trip and the donor's resources are gone.
	v, err := cl.Read("tomato")
	must(err)
	fmt.Printf("read-back after round trip: %s\n", v)
	if string(v) != "fresh tomatoes" {
		panic("round trip lost a write")
	}
	if part.PartitionOf("tomato") != 1 || st.Partitions() != 2 {
		panic("merge did not restore the original topology")
	}
	if st.PartitionRing(newPart) != 0 {
		panic("retired ring still in the topology")
	}

	// The retired ring ID is recycled by the next split.
	again, err := rb.SplitPartition(1, "s")
	must(err)
	fmt.Printf("next split reuses partition %d on recycled ring %d\n", again, st.PartitionRing(again))
	if st.PartitionRing(again) != splitRing {
		panic("retired ring ID was not recycled")
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
