// Rebalance: split a live MRP-Store partition onto a new ring with zero
// downtime — the elastic growth path of the paper's scalability story
// (new replicas join new rings, services repartition across them).
//
//	go run ./examples/rebalance
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

	// The partitioning schema is replicated state, versioned by an epoch;
	// clients route by the deployment's committed copy.
	cl := st.NewClient()
	defer cl.Close()
	for _, k := range []string{"apple", "melon", "peach", "tomato"} {
		must(cl.Insert(k, []byte("crate of "+k)))
	}
	fmt.Printf("epoch %d: %d partitions\n", st.Epoch(), st.Partitions())

	// Split the upper partition at "s" while the store keeps serving: the
	// new partition gets fresh replicas that join a brand-new ring before
	// they start, the moved range is streamed over, and ownership flips
	// atomically.
	rb, err := mrp.NewRebalancer(mrp.RebalanceConfig{
		Store:  st,
		OnStep: func(step string) { fmt.Println("  split step:", step) },
	})
	must(err)
	defer rb.Close()
	newPart, err := rb.SplitPartition(1, "s")
	must(err)

	// Stale clients refresh their view of the schema, or are redirected
	// with a typed wrong-epoch reply and retry — reads and writes keep
	// succeeding.
	v, err := cl.Read("tomato")
	must(err)
	part := st.Partitioner()
	fmt.Printf("epoch %d: %d partitions; %q now served by partition %d (%s)\n",
		st.Epoch(), st.Partitions(), "tomato", part.PartitionOf("tomato"), v)
	if part.PartitionOf("tomato") != newPart {
		panic("moved key not owned by the new partition")
	}
	must(cl.Update("tomato", []byte("fresh tomatoes")))
	v, err = cl.Read("tomato")
	must(err)
	fmt.Printf("post-split write readback: %s\n", v)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
