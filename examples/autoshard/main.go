// Autoshard: the elasticity loop closed — nobody calls SplitPartition or
// MergePartitions here. A load-driven controller watches every partition's
// op rate and size through the store's stats surface, splits the hot
// partition at the median key of its range once the heat holds, and merges
// the cold split-born partition back (retiring its ring) after the heat
// moves away. Hysteresis (time-in-violation, cool-down, split-protect)
// keeps it from flapping, and a lease on the deployment ensures exactly
// one controller acts.
//
//	go run ./examples/autoshard
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"mrp"
)

func main() {
	net := mrp.NewSimNetwork(mrp.WithUniformLatency(50 * time.Microsecond))
	defer net.Close()

	// Two range partitions ("a-m" and "m-z"), three replicas each.
	st, err := mrp.DeployStore(mrp.StoreConfig{
		Net:          net,
		Partitions:   2,
		Replicas:     3,
		GlobalRing:   true,
		Partitioner:  mrp.NewRangePartitioner([]string{"m"}),
		SkipInterval: 2 * time.Millisecond,
		SkipRate:     2000,
	})
	must(err)
	defer st.Stop()

	// Stock the shelves: a few cold keys below "m", plenty of hot
	// candidates above it.
	cl := st.NewClient()
	defer cl.Close()
	for i := 0; i < 8; i++ {
		must(cl.Insert(fmt.Sprintf("basket%02d", i), []byte("cold")))
	}
	for i := 0; i < 40; i++ {
		must(cl.Insert(fmt.Sprintf("shelf%02d", i), []byte("warm")))
	}

	// The controller drives a rebalancer; we only watch.
	rb, err := mrp.NewRebalancer(mrp.RebalanceConfig{
		Store:         st,
		ChunkInterval: 100 * time.Microsecond, // migration budget: trickle the copy
	})
	must(err)
	defer rb.Close()
	ctrl, err := mrp.NewAutoSharder(mrp.AutoShardConfig{
		Store:          st,
		Rebalancer:     rb,
		Interval:       40 * time.Millisecond,
		SplitOpsPerSec: 40, // hot above 40 ops/s ...
		MergeOpsPerSec: 5,  // ... cold below 5 ops/s
		MinSplitKeys:   8,
		ViolationTicks: 2,
		Cooldown:       300 * time.Millisecond,
		SplitProtect:   600 * time.Millisecond,
		MaxPartitions:  3,
		OnAction:       func(a string) { fmt.Println("  controller:", a) },
	})
	must(err)
	ctrl.Start()
	defer ctrl.Stop()

	// Heat up the "shelf" range: a closed-loop updater far above the split
	// threshold. The controller should notice, pick the median key, and
	// split partition 1 — we never touch the topology ourselves.
	fmt.Println("hammering the shelf range:")
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		hot := st.NewClient()
		defer hot.Close()
		for !stop.Load() {
			for i := 0; i < 40 && !stop.Load(); i++ {
				//mrp:nolint orderedresult — load generator; wrong-epoch blips during the split are expected
				_ = hot.Update(fmt.Sprintf("shelf%02d", i), []byte("hot"))
			}
		}
	}()
	waitFor("controller-initiated split", func() bool { return st.Partitions() == 3 })
	fmt.Printf("epoch %d: %d partitions — the hot range got its own ring\n",
		st.Epoch(), st.Partitions())

	// The heat moves away; the split-born partition goes cold. After the
	// hysteresis clears (cool-down, split-protect), the controller merges
	// it back and retires its ring.
	fmt.Println("load gone — waiting for the merge:")
	stop.Store(true)
	<-done
	waitFor("controller-initiated merge", func() bool { return st.Partitions() == 2 })
	fmt.Printf("%d partitions again; ring retired=%v\n",
		st.Partitions(), st.PartitionRing(2) == 0)

	// Nothing was lost along the round trip, and per-partition stats show
	// where the data lives.
	v, err := cl.Read("shelf17")
	must(err)
	fmt.Printf("read-back after the round trip: shelf17 = %q\n", v)
	if string(v) != "hot" {
		panic("round trip lost a write")
	}
	for p := 0; p < st.Partitions(); p++ {
		s, ok := st.PartitionStats(p)
		if !ok {
			panic(fmt.Sprintf("no stats for partition %d", p))
		}
		fmt.Printf("partition %d: %d keys, %d bytes, %d ops served\n", p, s.Keys, s.Bytes, s.Ops)
	}
	if ctrl.Splits() != 1 || ctrl.Merges() != 1 {
		panic(fmt.Sprintf("flapping: %d splits, %d merges", ctrl.Splits(), ctrl.Merges()))
	}
}

func waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			panic("timed out waiting for " + what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
