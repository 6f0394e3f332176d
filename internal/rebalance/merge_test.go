package rebalance

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/store"
	"mrp/internal/ycsb"
)

// TestLiveMergeUnderConcurrentWorkload is the acceptance scenario of
// bidirectional elasticity: the deployment splits under a concurrent
// YCSB-A + read-your-writes workload, then merges the split-born partition
// back while the workload keeps running. It verifies that (a) no client op
// is lost and no stale value is read across either reconfiguration, (b)
// the adopted schema drops the donor partition, and (c) the
// donor's ring is fully retired — processes stopped, topology tombstoned —
// and its ring ID recycled by a subsequent split.
func TestLiveMergeUnderConcurrentWorkload(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
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

	// Read-your-writes workers on both sides of the split point, routed
	// by the deployment's live topology.
	const workers = 3
	for w := 0; w < workers; w++ {
		cl := d.NewClient()
		keys := []string{
			fmt.Sprintf("%s-w%d", ycsb.Key(200), w), // partition 0, untouched
			fmt.Sprintf("%s-w%d", ycsb.Key(600), w), // partition 1, stays
			fmt.Sprintf("%s-w%d", ycsb.Key(800), w), // moved out, then back
		}
		wg.Add(1)
		go func(w int, cl *store.Client) {
			defer wg.Done()
			defer cl.Close()
			for seq := 0; !stop.Load(); seq++ {
				for _, k := range keys {
					want := []byte(fmt.Sprintf("w%d-seq%d", w, seq))
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
					opCount.Add(2)
				}
			}
		}(w, cl)
	}

	// YCSB workload-A over the whole preloaded key space.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := d.NewClient()
		defer cl.Close()
		gen := ycsb.New(ycsb.Config{Workload: ycsb.WorkloadA, RecordCount: records, ValueSize: 64, Seed: 11})
		for !stop.Load() {
			o := gen.Next()
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
			opCount.Add(1)
		}
	}()

	// Steady state → split → steady → merge back → steady.
	time.Sleep(300 * time.Millisecond)
	newPart, err := coord.SplitPartition(1, ycsb.Key(750))
	if err != nil {
		t.Fatal(err)
	}
	splitRing := d.PartitionRing(newPart)
	time.Sleep(300 * time.Millisecond)

	preMerge := opCount.Load()
	if err := coord.MergePartitions(1, newPart); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if len(fails) > 0 {
		t.Fatalf("workload failures (first of %d): %s", len(fails), fails[0])
	}
	if got := opCount.Load(); got <= preMerge {
		t.Fatalf("no ops completed after the merge (pre=%d total=%d)", preMerge, got)
	}
	if coord.Splits() != 1 || coord.Merges() != 1 {
		t.Fatalf("splits=%d merges=%d", coord.Splits(), coord.Merges())
	}

	// (b) the adopted schema dropped the donor partition.
	if d.Epoch() != 3 || d.Partitions() != 2 {
		t.Fatalf("adopted schema epoch=%d partitions=%d", d.Epoch(), d.Partitions())
	}
	if p := d.Partitioner().PartitionOf(ycsb.Key(800)); p != 1 {
		t.Fatalf("merged-back key routed to %d, want 1", p)
	}

	// (c) the donor ring is fully retired and the survivor owns the data.
	if ring := d.PartitionRing(newPart); ring != 0 {
		t.Fatalf("donor ring %d still in topology", ring)
	}
	if h := d.ReplicaAt(newPart, 0); h != nil {
		t.Fatal("donor replicas still registered")
	}
	if err := d.RecoverReplica(newPart, 0); err == nil {
		t.Fatal("recovery of the retired donor succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := d.ReplicaAt(1, 0).SM.Data().Get(ycsb.Key(800)); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivor never installed the donor's range")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh client reads and scans the merged range through new routing.
	cl := d.NewClient()
	defer cl.Close()
	v, err := cl.Read(ycsb.Key(801))
	if err != nil || len(v) == 0 {
		t.Fatalf("post-merge read of returned key: %q, %v", v, err)
	}
	entries, err := cl.Scan(ycsb.Key(700), ycsb.Key(850), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 151+workers {
		t.Fatalf("post-merge scan returned %d entries, want %d", len(entries), 151+workers)
	}

	// The retired ring ID is recycled by the next split.
	again, err := coord.SplitPartition(1, ycsb.Key(750))
	if err != nil {
		t.Fatal(err)
	}
	if ring := d.PartitionRing(again); ring != splitRing {
		t.Fatalf("recycled ring = %d, want %d", ring, splitRing)
	}
}

// TestMergeWithoutGlobalRing merges a seed partition on an
// independent-rings deployment down to a single partition.
func TestMergeWithoutGlobalRing(t *testing.T) {
	d := deploySplitStore(t, false)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	cl := d.NewClient()
	defer cl.Close()
	if err := cl.Insert(ycsb.Key(900), []byte("pre-merge")); err != nil {
		t.Fatal(err)
	}
	if err := coord.MergePartitions(0, 1); err != nil {
		t.Fatal(err)
	}
	if d.Partitions() != 1 || d.Epoch() != 2 {
		t.Fatalf("after merge: partitions=%d epoch=%d", d.Partitions(), d.Epoch())
	}
	v, err := cl.Read(ycsb.Key(900))
	if err != nil || string(v) != "pre-merge" {
		t.Fatalf("read after merge = %q, %v", v, err)
	}
	if err := cl.Update(ycsb.Key(900), []byte("post-merge")); err != nil {
		t.Fatal(err)
	}
	entries, err := cl.Scan(ycsb.Key(0), ycsb.Key(999), 0)
	if err != nil || len(entries) != records {
		t.Fatalf("full scan after merge = %d entries, %v", len(entries), err)
	}
}

// TestMergeValidation covers coordinator input checks, including the
// global-ring-donor restriction.
func TestMergeValidation(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.MergePartitions(0, 0); err == nil {
		t.Fatal("self merge succeeded")
	}
	if err := coord.MergePartitions(0, 7); err == nil {
		t.Fatal("merge of missing partition succeeded")
	}
	// Seed partitions subscribe to the global ring: not mergeable there.
	if err := coord.MergePartitions(0, 1); err == nil || !strings.Contains(err.Error(), "global ring") {
		t.Fatalf("global-ring donor merge = %v", err)
	}
}

// TestCopyFailureRoutedThroughOrderedAbort injects failures during the
// copy phase of both plans and checks the engine rolls back with the
// ordered abort instead of leaving the range frozen and the topology
// half-applied: writes to the affected range succeed again, the epoch is
// unchanged, and a subsequent reconfiguration works.
func TestCopyFailureRoutedThroughOrderedAbort(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cl := d.NewClient()
	defer cl.Close()

	boom := errors.New("injected copy failure")
	coord.failpoint = func(step string) error {
		if step == "copy" {
			return boom
		}
		return nil
	}
	if _, err := coord.SplitPartition(1, ycsb.Key(750)); !errors.Is(err, boom) {
		t.Fatalf("split error = %v", err)
	}
	if coord.Aborts() != 1 {
		t.Fatalf("aborts = %d", coord.Aborts())
	}
	// The frozen range serves again at the old epoch; the provisioned
	// partition is gone.
	if d.Epoch() != 1 || d.Partitions() != 2 {
		t.Fatalf("after aborted split: epoch=%d partitions=%d", d.Epoch(), d.Partitions())
	}
	if err := cl.Insert(ycsb.Key(800), []byte("post-abort")); err != nil {
		t.Fatalf("write to unfrozen range: %v", err)
	}

	// With the failpoint cleared the same split succeeds, recycling the
	// aborted provision's ring.
	coord.failpoint = nil
	newPart, err := coord.SplitPartition(1, ycsb.Key(750))
	if err != nil {
		t.Fatal(err)
	}

	// Now abort a merge mid-copy: donor unfreezes, survivor drops the
	// half-transferred chunks, and the retry completes.
	coord.failpoint = func(step string) error {
		if step == "copy" {
			return boom
		}
		return nil
	}
	if err := coord.MergePartitions(1, newPart); !errors.Is(err, boom) {
		t.Fatalf("merge error = %v", err)
	}
	if d.Epoch() != 2 || d.PartitionRing(newPart) == 0 {
		t.Fatalf("aborted merge mutated topology: epoch=%d ring=%d", d.Epoch(), d.PartitionRing(newPart))
	}
	if err := cl.Insert(ycsb.Key(820), []byte("post-merge-abort")); err != nil {
		t.Fatalf("write to unfrozen donor: %v", err)
	}
	coord.failpoint = nil
	if err := coord.MergePartitions(1, newPart); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Read(ycsb.Key(820))
	if err != nil || string(v) != "post-merge-abort" {
		t.Fatalf("read after retried merge = %q, %v", v, err)
	}
}

// TestResolvePendingAbortsCrashedCoordinator kills the coordinator (via
// the crash failpoint) between prepare and commit and has a successor
// coordinator resolve the plan recorded on the deployment: the ordered
// abort unfreezes the range, removes the orphan partition, and the
// deployment is immediately reusable.
func TestResolvePendingAbortsCrashedCoordinator(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	coord.failpoint = func(step string) error {
		if step == "prepare" {
			return errCrash
		}
		return nil
	}
	if _, err := coord.SplitPartition(1, ycsb.Key(750)); !errors.Is(err, errCrash) {
		t.Fatalf("split error = %v", err)
	}
	coord.Close() // the dead coordinator

	// The range is frozen: a short-deadline probe write must redirect
	// forever. (Prove the freeze is real before resolving it.)
	probe := d.NewClient()
	probeErr := make(chan error, 1)
	go func() {
		probeErr <- probe.Insert(ycsb.Key(800), []byte("frozen?"))
	}()
	select {
	case err := <-probeErr:
		t.Fatalf("write to frozen range completed: %v", err)
	case <-time.After(300 * time.Millisecond):
	}

	// A successor coordinator must refuse new plans while the crashed plan
	// is unresolved — starting one would overwrite the record and strand
	// the frozen range.
	succ, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer succ.Close()
	if _, err := succ.SplitPartition(0, ycsb.Key(200)); err == nil || !strings.Contains(err.Error(), "ResolvePending") {
		t.Fatalf("new plan over unresolved plan = %v", err)
	}
	plan, err := succ.ResolvePending()
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Kind != store.PlanSplit || plan.Published {
		t.Fatalf("resolved plan = %+v", plan)
	}
	// The frozen probe write completes once the abort unfreezes the range.
	if err := <-probeErr; err != nil {
		t.Fatalf("probe write after abort: %v", err)
	}
	probe.Close()
	if d.Epoch() != 1 || d.Partitions() != 2 {
		t.Fatalf("after resolve: epoch=%d partitions=%d", d.Epoch(), d.Partitions())
	}
	// Nothing left pending; the next split works.
	if plan, err := succ.ResolvePending(); err != nil || plan != nil {
		t.Fatalf("second resolve = %+v, %v", plan, err)
	}
	if _, err := succ.SplitPartition(1, ycsb.Key(750)); err != nil {
		t.Fatal(err)
	}
}

// TestResolvePendingRollsForwardPublishedPlan crashes the coordinator
// after the deployment adopted the plan's schema but before the commit:
// the successor must roll the plan forward (re-order the commit, finish
// the merge teardown), not abort a schema clients already route by.
func TestResolvePendingRollsForwardPublishedPlan(t *testing.T) {
	d := deploySplitStore(t, true)
	coord, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	coord.failpoint = func(step string) error {
		if step == "publish" {
			return errCrash
		}
		return nil
	}
	if _, err := coord.SplitPartition(1, ycsb.Key(750)); !errors.Is(err, errCrash) {
		t.Fatalf("split error = %v", err)
	}
	coord.Close()

	succ, err := New(Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer succ.Close()
	plan, err := succ.ResolvePending()
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || !plan.Published {
		t.Fatalf("resolved plan = %+v", plan)
	}
	// The split is fully committed: schema, routing, and data movement.
	if d.Epoch() != 2 || d.Partitions() != 3 {
		t.Fatalf("schema after roll-forward: epoch=%d partitions=%d", d.Epoch(), d.Partitions())
	}
	cl := d.NewClient()
	defer cl.Close()
	v, err := cl.Read(ycsb.Key(801))
	if err != nil || len(v) == 0 {
		t.Fatalf("read of moved key after roll-forward: %q, %v", v, err)
	}

	// Same crash point on the merge path: the successor re-commits and
	// completes the donor teardown.
	succ.failpoint = func(step string) error {
		if step == "publish" {
			return errCrash
		}
		return nil
	}
	if err := succ.MergePartitions(1, 2); !errors.Is(err, errCrash) {
		t.Fatalf("merge error = %v", err)
	}
	succ.failpoint = nil
	plan, err = succ.ResolvePending()
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Kind != store.PlanMerge {
		t.Fatalf("resolved merge plan = %+v", plan)
	}
	if d.PartitionRing(2) != 0 {
		t.Fatal("donor ring survived the resumed teardown")
	}
	v, err = cl.Read(ycsb.Key(801))
	if err != nil || len(v) == 0 {
		t.Fatalf("read after resumed merge: %q, %v", v, err)
	}
}
