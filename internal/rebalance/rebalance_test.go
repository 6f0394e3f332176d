package rebalance

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/metrics"
	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/ycsb"
)

const records = 1000

func deploySplitStore(t *testing.T, global bool) *store.Deployment {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	d, err := store.Deploy(store.DeployConfig{
		Net:        net,
		Partitions: 2,
		Replicas:   3,
		GlobalRing: global,
		// Initial split of the YCSB key space: partition 0 below user500,
		// partition 1 from user500 up.
		Partitioner: store.NewRangePartitioner([]string{ycsb.Key(500)}),
		StorageMode: storage.InMemory,
		// λ must exceed the offered load or the global ring's skips pace
		// the merge below it (Section 4 rate leveling).
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
	var recs []store.Entry
	for _, o := range ycsb.Load(ycsb.Config{RecordCount: records, ValueSize: 64}) {
		recs = append(recs, store.Entry{Key: o.Key, Value: o.Value})
	}
	d.Preload(recs)
	return d
}

// TestLiveSplitUnderConcurrentWorkload is the acceptance scenario of the
// elastic-rebalancing subsystem: an MRP-Store deployment serves a
// concurrent YCSB-style workload while partition 1 is split at user750
// onto a freshly subscribed ring. It verifies that (a) no client op is
// lost or observes a stale value across the migration, (b) post-split
// reads of migrated keys are served by the new partition, and (c) the
// bench timeline shows throughput recovering after the split.
func TestLiveSplitUnderConcurrentWorkload(t *testing.T) {
	d := deploySplitStore(t, true)
	tl := metrics.NewTimeline(100 * time.Millisecond)

	coord, err := New(Config{
		Store:  d,
		OnStep: func(s string) { tl.Mark(time.Now(), s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var (
		stop    atomic.Bool
		opCount atomic.Uint64
		wg      sync.WaitGroup
		failMu  sync.Mutex
		fails   []string
	)
	failf := func(format string, args ...any) {
		failMu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		failMu.Unlock()
		stop.Store(true)
	}

	// Read-your-writes workers: each owns disjoint keys on both sides of
	// the coming split point (user750), writes a monotonically increasing
	// value and immediately reads it back. Any lost write or stale read
	// trips the harness. Every worker routes by the deployment's live
	// topology.
	const workers = 3
	for w := 0; w < workers; w++ {
		cl := d.NewClient()
		// Suffixed keys sort right after their YCSB neighbor (routing to
		// the same partition) but are disjoint from the concurrent YCSB
		// updater's keyspace, so read-your-writes holds per worker.
		keys := []string{
			fmt.Sprintf("%s-w%d", ycsb.Key(200), w), // partition 0, untouched by the split
			fmt.Sprintf("%s-w%d", ycsb.Key(600), w), // partition 1, stays after the split
			fmt.Sprintf("%s-w%d", ycsb.Key(800), w), // partition 1, moved to the new partition
		}
		wg.Add(1)
		go func(w int, cl *store.Client) {
			defer wg.Done()
			defer cl.Close()
			for seq := 0; !stop.Load(); seq++ {
				for _, k := range keys {
					want := []byte(fmt.Sprintf("w%d-seq%d", w, seq))
					start := time.Now()
					if err := cl.Insert(k, want); err != nil {
						failf("worker %d: insert %s: %v", w, k, err)
						return
					}
					got, err := cl.Read(k)
					if err != nil {
						failf("worker %d: read %s: %v", w, k, err)
						return
					}
					if !bytes.Equal(got, want) {
						failf("worker %d: stale read %s: got %q want %q", w, k, got, want)
						return
					}
					tl.RecordOp(time.Now(), time.Since(start))
					opCount.Add(2)
				}
			}
		}(w, cl)
	}

	// A YCSB workload-A client (50% read / 50% update, zipfian) over the
	// whole preloaded key space.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := d.NewClient()
		defer cl.Close()
		gen := ycsb.New(ycsb.Config{Workload: ycsb.WorkloadA, RecordCount: records, ValueSize: 64, Seed: 7})
		for !stop.Load() {
			o := gen.Next()
			start := time.Now()
			var err error
			switch o.Kind {
			case ycsb.OpRead:
				_, err = cl.Read(o.Key)
			case ycsb.OpUpdate:
				err = cl.Update(o.Key, o.Value)
			}
			if err != nil {
				failf("ycsb %s %s: %v", o.Kind, o.Key, err)
				return
			}
			tl.RecordOp(time.Now(), time.Since(start))
			opCount.Add(1)
		}
	}()

	// Steady state, then the live split, then recovery.
	time.Sleep(500 * time.Millisecond)
	preOps := opCount.Load()
	splitStart := time.Now()
	tl.Mark(splitStart, "split initiated")
	newPart, err := coord.SplitPartition(1, ycsb.Key(750))
	if err != nil {
		t.Fatal(err)
	}
	splitDone := time.Now()

	// Crash a replica of the just-created partition while the workload
	// keeps running, then recover it: recovery derives the partition's
	// ring membership from the schema, so a deployment that grew by a live
	// split keeps its fault tolerance.
	d.CrashReplica(newPart, 2)
	time.Sleep(150 * time.Millisecond)
	if err := d.RecoverReplica(newPart, 2); err != nil {
		t.Fatalf("crash+recover of split-partition replica: %v", err)
	}

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// The recovered replica replays the ring (migration chunks, activation,
	// workload commands) and converges with its surviving peers.
	recDeadline := time.Now().Add(10 * time.Second)
	for {
		s0 := d.ReplicaAt(newPart, 0).Replica.StateSnapshot()
		s2 := d.ReplicaAt(newPart, 2).Replica.StateSnapshot()
		if bytes.Equal(s0, s2) {
			break
		}
		if time.Now().After(recDeadline) {
			t.Fatal("recovered split-partition replica did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if len(fails) > 0 {
		t.Fatalf("workload failures (first of %d): %s", len(fails), fails[0])
	}
	if got := opCount.Load(); got <= preOps {
		t.Fatalf("no ops completed after the split (pre=%d total=%d)", preOps, got)
	}

	// (b) migrated keys are owned and served by the new partition.
	if newPart != 2 {
		t.Fatalf("new partition = %d", newPart)
	}
	if d.Epoch() != 2 || d.Partitions() != 3 {
		t.Fatalf("adopted schema epoch=%d partitions=%d", d.Epoch(), d.Partitions())
	}
	part := d.Partitioner()
	if p := part.PartitionOf(ycsb.Key(800)); p != 2 {
		t.Fatalf("user000000000800 routed to %d, want 2", p)
	}
	if p := part.PartitionOf(ycsb.Key(600)); p != 1 {
		t.Fatalf("user000000000600 routed to %d, want 1", p)
	}
	// The new partition's replicas hold the moved range; after the commit
	// the source eventually drops it (the commit is ordered behind the
	// last workload commands, so poll briefly).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, newHas := d.ReplicaAt(2, 0).SM.Data().Get(ycsb.Key(800))
		_, oldHas := d.ReplicaAt(1, 0).SM.Data().Get(ycsb.Key(800))
		if newHas && !oldHas {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ownership flip incomplete: new=%v old=%v", newHas, oldHas)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A fresh client reads a migrated key through the new routing.
	cl := d.NewClient()
	defer cl.Close()
	v, err := cl.Read(ycsb.Key(801))
	if err != nil || len(v) == 0 {
		t.Fatalf("post-split read of migrated key: %q, %v", v, err)
	}
	// Post-split scans fan out across old and new partitions and must see
	// exactly the preloaded keys of the range (151) plus the three worker
	// keys suffixed onto user...800.
	entries, err := cl.Scan(ycsb.Key(700), ycsb.Key(850), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 151+workers {
		t.Fatalf("post-split scan returned %d entries, want %d", len(entries), 151+workers)
	}

	// (c) throughput recovers after the split.
	samples := tl.Samples()
	window := 100 * time.Millisecond
	origin := tl.Start()
	steady := meanThroughput(samples, 1, int(splitStart.Sub(origin)/window))
	recovered := meanThroughput(samples, int(splitDone.Sub(origin)/window)+1, len(samples)-1)
	t.Logf("steady=%.0f ops/s recovered=%.0f ops/s split took %v (%d timeline events)",
		steady, recovered, splitDone.Sub(splitStart), len(tl.Events()))
	if steady <= 0 || recovered <= 0 {
		t.Fatalf("timeline has no throughput: steady=%.0f recovered=%.0f", steady, recovered)
	}
	if recovered < steady/4 {
		t.Fatalf("throughput did not recover: steady=%.0f recovered=%.0f", steady, recovered)
	}
}

func meanThroughput(s []metrics.Sample, lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	if hi <= lo {
		return 0
	}
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x.Throughput
	}
	return sum / float64(hi-lo)
}

// TestSplitWithoutGlobalRing runs the split protocol on an
// independent-rings deployment: prepare/commit are ordered through the
// source partition's own ring.
func TestSplitWithoutGlobalRing(t *testing.T) {
	d := deploySplitStore(t, false)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	cl := d.NewClient()
	defer cl.Close()
	if err := cl.Insert(ycsb.Key(900), []byte("pre-split")); err != nil {
		t.Fatal(err)
	}
	newPart, err := coord.SplitPartition(1, ycsb.Key(750))
	if err != nil {
		t.Fatal(err)
	}
	if newPart != 2 {
		t.Fatalf("new partition = %d", newPart)
	}
	v, err := cl.Read(ycsb.Key(900))
	if err != nil || string(v) != "pre-split" {
		t.Fatalf("read after split = %q, %v", v, err)
	}
	if err := cl.Update(ycsb.Key(900), []byte("post-split")); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 2 {
		t.Fatalf("epoch = %d", d.Epoch())
	}
	if coord.Splits() != 1 {
		t.Fatalf("splits = %d", coord.Splits())
	}
}

// TestChainedSplit splits a partition that was itself created by a split.
// The second split's source is not a global-ring member, so its
// prepare/commit must be ordered through the source's own ring.
func TestChainedSplit(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	cl := d.NewClient()
	defer cl.Close()
	first, err := coord.SplitPartition(1, ycsb.Key(750))
	if err != nil {
		t.Fatal(err)
	}
	second, err := coord.SplitPartition(first, ycsb.Key(900))
	if err != nil {
		t.Fatal(err)
	}
	if second != 3 {
		t.Fatalf("second split partition = %d", second)
	}
	// Keys across all four ranges stay readable and writable.
	for i, want := range map[int]int{100: 0, 600: 1, 800: 2, 950: 3} {
		v, err := cl.Read(ycsb.Key(i))
		if err != nil || len(v) == 0 {
			t.Fatalf("read %s after chained split: %q, %v", ycsb.Key(i), v, err)
		}
		if err := cl.Update(ycsb.Key(i), []byte("post-chain")); err != nil {
			t.Fatalf("update %s after chained split: %v", ycsb.Key(i), err)
		}
		if p := d.Partitioner().PartitionOf(ycsb.Key(i)); p != want {
			t.Fatalf("%s owned by %d, want %d", ycsb.Key(i), p, want)
		}
	}
	if d.Epoch() != 3 || d.Partitions() != 4 {
		t.Fatalf("schema after chained split: epoch=%d partitions=%d", d.Epoch(), d.Partitions())
	}
	// Scans spanning all partitions fan out (two of them off the global
	// ring) and stay complete.
	entries, err := cl.Scan(ycsb.Key(0), ycsb.Key(999), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != records {
		t.Fatalf("full scan after chained split = %d entries", len(entries))
	}
}

// TestSplitRollbackOnPrepareFailure checks a split that cannot prepare
// rolls its provisioned partition back, leaving the topology reusable.
func TestSplitRollbackOnPrepareFailure(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Force provisioning to succeed but leave an uncommitted partition
	// behind, simulating a split that died mid-protocol.
	next, err := d.Partitioner().(*store.RangePartitioner).Split(ycsb.Key(750), 2)
	if err != nil {
		t.Fatal(err)
	}
	part := 2
	if _, _, err := d.AddPartition(next, part, d.Epoch()+1); err != nil {
		t.Fatal(err)
	}
	// The coordinator must refuse to wire a new split onto the skewed
	// index space rather than silently mis-routing the moved range.
	if _, err := coord.SplitPartition(1, ycsb.Key(800)); err == nil {
		t.Fatal("split over a stale provisioned partition succeeded")
	}
	// After removing the stale partition, splits work again.
	if err := d.RemovePartition(part); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.SplitPartition(1, ycsb.Key(750)); err != nil {
		t.Fatal(err)
	}
}

// TestSplitValidation covers coordinator input checks.
func TestSplitValidation(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.SplitPartition(5, ycsb.Key(750)); err == nil {
		t.Fatal("split of missing partition succeeded")
	}
	if _, err := coord.SplitPartition(0, ycsb.Key(750)); err == nil {
		t.Fatal("split with key owned elsewhere succeeded")
	}
	if _, err := coord.SplitPartition(1, ycsb.Key(500)); err == nil {
		t.Fatal("split at existing boundary succeeded")
	}
}

// TestConcurrentPublisherFenced plays a rival publisher that adopts the
// split's epoch while the split is in flight: the split's own adopt must be refused, the split rolled back, and the
// rival's schema left in place.
func TestConcurrentPublisherFenced(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	epoch := d.Epoch() + 1
	rival := d.Partitioner()
	coord.failpoint = func(step string) error {
		if step == "activate" && !d.AdoptReconfig(epoch, rival) {
			t.Error("rival adopt refused")
		}
		return nil
	}
	if _, err := coord.SplitPartition(1, ycsb.Key(750)); err == nil || !strings.Contains(err.Error(), "concurrent schema publisher") {
		t.Fatalf("split racing a rival publisher = %v", err)
	}
	if d.Epoch() != epoch || d.Partitioner() != rival {
		t.Fatalf("after fenced split: epoch=%d, rival's mapping kept=%v", d.Epoch(), d.Partitioner() == rival)
	}
	if d.Partitions() != 2 || d.PartitionRing(2) != 0 {
		t.Fatalf("provisioned partition not removed: partitions=%d, ring of partition 2=%d",
			d.Partitions(), d.PartitionRing(2))
	}
}
