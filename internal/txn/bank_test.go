package txn_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/netsim"
	"mrp/internal/rebalance"
	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/txn"
)

func acct(i int) string { return fmt.Sprintf("acct%04d", i) }

// TestBankConservationUnderLiveSplit is the transaction subsystem's
// acceptance scenario: concurrent bank transfers — many of them spanning
// partitions — run while the controller live-splits a partition and then
// merges it back. Every transfer is ONE multicast command ordered by the
// learner merge; there are no locks and no 2PC coordinator. The harness
// checks
//
//	(a) conservation: the sum over all balances never changes,
//	(b) read-your-writes: the balances a Transfer returns equal the
//	    worker's locally tracked expectation (each worker owns a
//	    disjoint account set, so its view is exact),
//	(c) transfers racing the reconfiguration abort-and-retry cleanly
//	    (typed wrong-epoch redirects replan; ambiguous timeouts retry
//	    under the same sequence number).
func TestBankConservationUnderLiveSplit(t *testing.T) {
	const (
		accounts = 1000
		initial  = int64(100)
		workers  = 4
	)
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	d, err := store.Deploy(store.DeployConfig{
		Net:          net,
		Partitions:   2,
		Replicas:     3,
		GlobalRing:   true,
		Partitioner:  store.NewRangePartitioner([]string{acct(500)}),
		StorageMode:  storage.InMemory,
		SkipInterval: 5 * time.Millisecond,
		SkipRate:     9000,
		RetryTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d.Stop()
		net.Close()
	}()
	recs := make([]store.Entry, accounts)
	for i := range recs {
		recs[i] = store.Entry{Key: acct(i), Value: txn.EncodeBalance(initial)}
	}
	d.Preload(recs)

	coord, err := rebalance.New(rebalance.Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var (
		stop      atomic.Bool
		transfers atomic.Uint64
		wg        sync.WaitGroup
		failMu    sync.Mutex
		fails     []string
	)
	failf := func(format string, args ...any) {
		failMu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		failMu.Unlock()
		stop.Store(true)
	}

	// Each worker owns a disjoint account set straddling every region the
	// reconfiguration touches: partition 0 (untouched), partition 1 below
	// the split point (stays), and above it (moves to the new partition,
	// then back at the merge). Transfers rotate through cross-partition
	// and cross-split-boundary pairs.
	for w := 0; w < workers; w++ {
		cl := d.NewClient()
		own := []int{100 + w, 300 + w, 600 + w, 800 + w, 900 + w}
		wg.Add(1)
		go func(w int, cl *store.Client) {
			defer wg.Done()
			defer cl.Close()
			bal := make(map[string]int64, len(own))
			for _, i := range own {
				bal[acct(i)] = initial
			}
			for round := 0; !stop.Load(); round++ {
				from := acct(own[round%len(own)])
				to := acct(own[(round+1)%len(own)])
				amount := int64(1 + round%7)
				fromBal, toBal, err := cl.Transfer(from, to, amount)
				if err != nil {
					failf("worker %d: transfer %s->%s: %v", w, from, to, err)
					return
				}
				bal[from] -= amount
				bal[to] += amount
				if fromBal != bal[from] || toBal != bal[to] {
					failf("worker %d round %d: read-your-writes violated: %s=%d (want %d), %s=%d (want %d)",
						w, round, from, fromBal, bal[from], to, toBal, bal[to])
					return
				}
				transfers.Add(1)
			}
		}(w, cl)
	}

	settle := func(phase string) {
		time.Sleep(300 * time.Millisecond)
		if stop.Load() {
			t.Fatalf("worker failed during %s: %v", phase, fails)
		}
	}
	settle("steady state")
	newPart, err := coord.SplitPartition(1, acct(750))
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	settle("post-split")
	if err := coord.MergePartitions(1, newPart); err != nil {
		t.Fatalf("merge: %v", err)
	}
	settle("post-merge")
	stop.Store(true)
	wg.Wait()
	failMu.Lock()
	defer failMu.Unlock()
	if len(fails) > 0 {
		t.Fatal(fails)
	}
	if transfers.Load() == 0 {
		t.Fatal("no transfers completed")
	}

	// Conservation: the sum over every account equals the preloaded total.
	cl := d.NewClient()
	defer cl.Close()
	var total int64
	for lo := 0; lo < accounts; lo += 100 {
		keys := make([]string, 0, 100)
		for i := lo; i < lo+100; i++ {
			keys = append(keys, acct(i))
		}
		got, err := cl.MultiGet(keys)
		if err != nil {
			t.Fatalf("MultiGet [%d,%d): %v", lo, lo+100, err)
		}
		for _, k := range keys {
			total += txn.DecodeBalance(got[k])
		}
	}
	if want := int64(accounts) * initial; total != want {
		t.Fatalf("conservation violated: total = %d, want %d (%d transfers)", total, want, transfers.Load())
	}
	t.Logf("%d transfers across split+merge, total conserved at %d", transfers.Load(), total)
}
