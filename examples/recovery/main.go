// Recovery: the Section 8.5 scenario as a demo, extended to an elastic
// deployment — first a replica of a seed partition is terminated, the
// survivors keep serving and checkpoint, the acceptors trim their logs,
// and the replica recovers from a remote checkpoint plus acceptor replay.
// Then the store is split live onto a new ring, a replica of the
// *split-created* partition is terminated and recovered the same way:
// recovery reads ring membership from the partition table, so a store that
// grew at runtime keeps its fault tolerance.
//
//	go run ./examples/recovery
package main

import (
	"bytes"
	"fmt"
	"time"

	"mrp"
)

func main() {
	net := mrp.NewSimNetwork()
	defer net.Close()
	st, err := mrp.DeployStore(mrp.StoreConfig{
		Net:          net,
		Partitions:   1,
		Replicas:     3,
		Partitioner:  mrp.NewRangePartitioner(nil),
		StorageMode:  mrp.InMemory,
		TrimInterval: 100 * time.Millisecond,
		RetryTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer st.Stop()
	cl := st.NewClient()
	defer cl.Close()

	put := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := cl.Insert(fmt.Sprintf("key-%03d", i), []byte("v")); err != nil {
				panic(err)
			}
		}
	}
	converge := func(p, ra, rb int, what string) {
		deadline := time.Now().Add(15 * time.Second)
		for {
			sa := st.ReplicaAt(p, ra).Replica.StateSnapshot()
			sb := st.ReplicaAt(p, rb).Replica.StateSnapshot()
			if bytes.Equal(sa, sb) {
				return
			}
			if time.Now().After(deadline) {
				panic(what + " did not converge")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// --- Part 1: crash and recover a seed-partition replica. ---
	put(0, 20)
	fmt.Println("20 inserts committed on 3 replicas")

	st.CrashReplica(0, 2)
	fmt.Println("replica (0,2) terminated; ring healed around it")

	put(20, 50)
	fmt.Println("30 more inserts committed on the surviving majority")

	// Survivors checkpoint; once a quorum has, the trim coordinator lets
	// the acceptors drop the covered prefix.
	st.ReplicaAt(0, 0).Replica.Checkpoint()
	st.ReplicaAt(0, 1).Replica.Checkpoint()
	deadline := time.Now().Add(5 * time.Second)
	for st.TrimCoordinators()[0].Trims() == 0 {
		if time.Now().After(deadline) {
			panic("no trim")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("acceptor logs trimmed up to instance %d\n", st.TrimCoordinators()[0].LastTrim())

	if err := st.RecoverReplica(0, 2); err != nil {
		panic(err)
	}
	fmt.Println("replica (0,2) recovering: remote checkpoint + acceptor replay")

	put(50, 60)
	converge(0, 0, 2, "recovered seed replica")
	fmt.Printf("replica (0,2) converged: %d keys, state identical to survivors\n",
		st.ReplicaAt(0, 2).SM.Data().Len())

	// --- Part 2: split live, then crash and recover a replica of the
	// partition the split created. ---
	rb, err := mrp.NewRebalancer(mrp.RebalanceConfig{Store: st})
	if err != nil {
		panic(err)
	}
	defer rb.Close()
	newPart, err := rb.SplitPartition(0, "key-030")
	if err != nil {
		panic(err)
	}
	fmt.Printf("live split: [key-030, ...) moved to partition %d on a fresh ring (epoch %d)\n",
		newPart, st.Epoch())

	st.CrashReplica(newPart, 2)
	fmt.Printf("replica (%d,2) of the split partition terminated\n", newPart)
	put(60, 65) // keys ≥ key-030: served by the new partition's majority
	fmt.Println("5 inserts to the moved range committed on its surviving majority")

	if err := st.RecoverReplica(newPart, 2); err != nil {
		panic(err)
	}
	fmt.Printf("replica (%d,2) recovering: ring membership from the partition table, rejoin, replay\n", newPart)

	// Fresh traffic on the ring carries the recovered replica's gap
	// detection past the crash point (a deployment with rate leveling gets
	// this for free from skip instances).
	put(65, 70)
	converge(newPart, 0, 2, "recovered split-partition replica")
	if v, err := cl.Read("key-065"); err != nil || len(v) == 0 {
		panic(fmt.Sprintf("post-recovery read: %q, %v", v, err))
	}
	fmt.Printf("replica (%d,2) converged: %d keys, split partition fully fault tolerant\n",
		newPart, st.ReplicaAt(newPart, 2).SM.Data().Len())
}
