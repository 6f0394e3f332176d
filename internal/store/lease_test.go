package store

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/transport"
	"mrp/internal/ycsb"
)

// This file is the linearizability suite for lease-served local reads:
// YCSB-A-shaped traffic (50/50 read/update, zipfian keys) drives a
// deployment through the three hazards the lease protocol must survive —
// serve windows lapsing mid-traffic, the holder crashing and recovering,
// and a live split/merge revoking leases mid-flight — while every read is
// checked against two client-observable consequences of linearizability:
//
//   - Staleness floor (subsumes read-your-writes): each key has a single
//     logical writer stamping strictly increasing versions; a read that
//     BEGAN after version n was acknowledged must return ≥ n. A lease
//     holder serving past its window, or before its applied frontier
//     covers the grant, fails exactly this check.
//   - Monotonic reads: one client's successive reads of a key never go
//     backwards in version — the hazard of alternating between a stale
//     local path and the ordered path.
//
// The checks are per-key and client-local — no global history collection —
// so the suite runs hot (and race-clean) enough to keep the hazard
// windows busy.

// leaseLinConfig shapes one linearizability scenario run.
type leaseLinConfig struct {
	keys    int           // distinct keys, one logical writer each
	writers int           // writer-reader threads (keys striped across them)
	readers int           // additional read-only threads
	dur     time.Duration // traffic duration; the scenario fires a quarter in
}

// deployLeaseStore deploys a two-partition range store (boundary halfway
// through the YCSB key space) with the given lease policy.
func deployLeaseStore(t *testing.T, keys int, pol LeasePolicy) *Deployment {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	d, err := Deploy(DeployConfig{
		Net:          net,
		Partitions:   2,
		Replicas:     3,
		GlobalRing:   true,
		Partitioner:  NewRangePartitioner([]string{ycsb.Key(keys / 2)}),
		StorageMode:  storage.InMemory,
		Lease:        pol,
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

// ycsbIndex recovers the record index from a ycsb.Key-formatted key.
func ycsbIndex(t *testing.T, key string) int {
	n, err := strconv.Atoi(key[len("user"):])
	if err != nil {
		t.Fatalf("unexpected ycsb key %q", key)
	}
	return n
}

// leaseLinRun drives checked YCSB-A traffic against d while scenario
// (which may be nil) executes once, a quarter into the run. It returns
// the number of lease-served reads so callers can assert the fast path
// was actually on trial, not vacuously bypassed.
func leaseLinRun(t *testing.T, d *Deployment, cfg leaseLinConfig, scenario func()) int64 {
	t.Helper()

	// Preload every key at version 0 so a read never legitimately misses.
	loader := d.NewClient()
	for k := 0; k < cfg.keys; k++ {
		if err := loader.Insert(ycsb.Key(k), []byte("0")); err != nil {
			loader.Close()
			t.Fatalf("preload %d: %v", k, err)
		}
	}
	loader.Close()

	// acked[k] is the highest version of key k whose write has been
	// acknowledged — the staleness floor any later-starting read must meet.
	acked := make([]atomic.Int64, cfg.keys)
	var leaseReads atomic.Int64
	errCh := make(chan error, 1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	worker := func(id int, writes bool) {
		defer wg.Done()
		cl := d.NewClient()
		defer func() {
			leaseReads.Add(cl.LeaseReads())
			cl.Close()
		}()
		gen := ycsb.New(ycsb.Config{Workload: ycsb.WorkloadA, RecordCount: cfg.keys, ValueSize: 16, Seed: int64(101 + id)})
		lastSeen := make([]int64, cfg.keys)
		next := make([]int64, cfg.keys)
		for {
			select {
			case <-stop:
				return
			default:
			}
			op := gen.Next()
			k := ycsbIndex(t, op.Key)
			if writes && op.Kind == ycsb.OpUpdate {
				// Re-stripe the drawn key onto this writer's slice so each
				// key keeps a single logical writer and versions totally
				// order.
				k = k - k%cfg.writers + id
				if k >= cfg.keys {
					k -= cfg.writers
				}
				v := next[k] + 1
				if err := cl.Update(ycsb.Key(k), []byte(strconv.FormatInt(v, 10))); err != nil {
					fail(fmt.Errorf("update %s to %d: %w", ycsb.Key(k), v, err))
					return
				}
				next[k] = v
				acked[k].Store(v)
				continue
			}
			floor := acked[k].Load()
			raw, err := cl.Read(ycsb.Key(k))
			if err != nil {
				fail(fmt.Errorf("read %s: %w", ycsb.Key(k), err))
				return
			}
			v, perr := strconv.ParseInt(string(raw), 10, 64)
			if perr != nil {
				fail(fmt.Errorf("read %s: undecodable version %q", ycsb.Key(k), raw))
				return
			}
			if v < floor {
				fail(fmt.Errorf("stale read of %s: version %d, but %d was acked before the read began", ycsb.Key(k), v, floor))
				return
			}
			if v < lastSeen[k] {
				fail(fmt.Errorf("non-monotonic reads of %s: %d after %d", ycsb.Key(k), v, lastSeen[k]))
				return
			}
			lastSeen[k] = v
		}
	}

	for id := 0; id < cfg.writers; id++ {
		wg.Add(1)
		go worker(id, true)
	}
	for id := 0; id < cfg.readers; id++ {
		wg.Add(1)
		go worker(cfg.writers+id, false)
	}

	time.Sleep(cfg.dur / 4)
	if scenario != nil {
		scenario()
	}
	time.Sleep(3 * cfg.dur / 4)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	return leaseReads.Load()
}

// TestLeaseReadsLinearizableUnderExpiry runs an aggressive lease policy
// whose serve window (Duration − Margin = 40ms) lapses BEFORE the renewal
// cadence (45ms) every cycle: each renewal interval ends with an expired
// holder declining local reads until the next claim lands. Reads cross
// the expiry boundary constantly; none may be stale or non-monotonic.
func TestLeaseReadsLinearizableUnderExpiry(t *testing.T) {
	const keys = 64
	d := deployLeaseStore(t, keys, LeasePolicy{
		duration:   60 * time.Millisecond,
		margin:     20 * time.Millisecond,
		renewEvery: 45 * time.Millisecond,
	})
	hits := leaseLinRun(t, d, leaseLinConfig{keys: keys, writers: 4, readers: 2, dur: 1500 * time.Millisecond}, nil)
	if hits == 0 {
		t.Fatal("lease fast path never served a read; the suite checked nothing")
	}
}

// TestLeaseReadsLinearizableAcrossHolderCrash crashes partition 1's lease
// holder mid-traffic and recovers it: nothing claims while the holder is
// down (so the outstanding lease lapses and the survivors resume
// answering), then the recovered holder re-establishes the lease itself —
// its restored lease table must re-arm silence, not resume serving on the
// stale pre-crash window.
func TestLeaseReadsLinearizableAcrossHolderCrash(t *testing.T) {
	const keys = 64
	d := deployLeaseStore(t, keys, LeasePolicy{
		duration:   200 * time.Millisecond,
		margin:     40 * time.Millisecond,
		renewEvery: 66 * time.Millisecond,
	})
	holder := leaseHolderIdx(3)
	hits := leaseLinRun(t, d, leaseLinConfig{keys: keys, writers: 4, readers: 2, dur: 2 * time.Second}, func() {
		d.CrashReplica(1, holder)
		time.Sleep(500 * time.Millisecond)
		if err := d.RecoverReplica(1, holder); err != nil {
			t.Errorf("recover holder: %v", err)
		}
	})
	if hits == 0 {
		t.Fatal("lease fast path never served a read; the suite checked nothing")
	}
}

// TestLeaseReadsLinearizableAcrossSplitMerge splits the busy partition
// mid-traffic and merges it back: the prepares (preceded by ordered lease
// revocations, as the rebalance coordinator orders them) freeze ranges
// out from under advertised holders, and the retirement tears down the
// split-born ring while its lease is still advertised. Readers must ride
// the typed redirects and timeouts onto the ordered path without ever
// observing a stale or non-monotonic version.
func TestLeaseReadsLinearizableAcrossSplitMerge(t *testing.T) {
	const keys = 64
	d := deployLeaseStore(t, keys, LeasePolicy{
		duration:   300 * time.Millisecond,
		margin:     60 * time.Millisecond,
		renewEvery: 100 * time.Millisecond,
	})
	admin := d.NewClient()
	defer admin.Close()
	hits := leaseLinRun(t, d, leaseLinConfig{keys: keys, writers: 4, readers: 2, dur: 2 * time.Second}, func() {
		// Carve the top quarter of the key space out of partition 1, then
		// drain it back and retire its ring.
		newPart := liveSplit(t, d, admin, 1, ycsb.Key(3*keys/4))
		time.Sleep(300 * time.Millisecond)
		liveMerge(t, d, admin, 1, newPart)
	})
	if hits == 0 {
		t.Fatal("lease fast path never served a read; the suite checked nothing")
	}
}

// TestLeaseRenewedByHolder checks that each partition's lease is renewed
// by its designated holder itself: the deployment binds no endpoint beyond
// its replicas and their recovery conversations; the holder serves and is
// advertised in the deployment's client view; a crashed holder is withdrawn
// from it and its lease stops being renewed, so the survivors' lease
// sequence stands still; and a recovered holder claims, serves and is
// advertised again. Once the deployment stops, no renewer is left running.
func TestLeaseRenewedByHolder(t *testing.T) {
	const partitions, replicas = 2, 3
	pol := LeasePolicy{
		duration:   200 * time.Millisecond,
		margin:     40 * time.Millisecond,
		renewEvery: 50 * time.Millisecond,
	}
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	defer net.Close()
	var mu sync.Mutex
	var asked []transport.Addr
	d, err := Deploy(DeployConfig{
		EndpointFor: func(a transport.Addr) (transport.Endpoint, error) {
			mu.Lock()
			asked = append(asked, a)
			mu.Unlock()
			return net.Endpoint(a), nil
		},
		Partitions:   partitions,
		Replicas:     replicas,
		GlobalRing:   true,
		StorageMode:  storage.InMemory,
		Lease:        pol,
		SkipInterval: 5 * time.Millisecond,
		SkipRate:     9000,
		RetryTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop() // a no-op after the Stop the test ends with

	replicaAddrs := make(map[transport.Addr]bool)
	for p := 0; p < partitions; p++ {
		for r := 0; r < replicas; r++ {
			replicaAddrs[d.cfg.AddrFor(p, r)] = true
		}
	}
	onlyReplicaEndpoints := func() {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for _, a := range asked {
			if !replicaAddrs[a] && !replicaAddrs[transport.Addr(strings.TrimSuffix(string(a), "-recovery"))] {
				t.Fatalf("deployment asked for an endpoint outside its replicas and their recoveries: %q", a)
			}
		}
	}
	onlyReplicaEndpoints()

	holder := leaseHolderIdx(replicas)
	waitFor := func(what string, within time.Duration, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(within); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("not %s within %v", what, within)
			}
		}
	}
	serving := func(p int) func() bool {
		return func() bool { return d.ReplicaAt(p, holder).Replica.ServingLease() }
	}
	holderInView := func(p int) transport.Addr {
		v := d.currentView()
		return v.leaseHolderFor(p)
	}
	advertised := func(p int) func() bool {
		return func() bool { return holderInView(p) == d.cfg.AddrFor(p, holder) }
	}
	withdrawn := func() {
		t.Helper()
		if a := holderInView(1); a != "" {
			t.Fatalf("crashed holder still advertised as %q", a)
		}
	}
	for p := 0; p < partitions; p++ {
		waitFor(fmt.Sprintf("partition %d's holder serving", p), 5*time.Second, serving(p))
		waitFor(fmt.Sprintf("partition %d's holder advertised", p), 5*time.Second, advertised(p))
	}

	// Survivors of partition 1 agree on the replicated lease table, so
	// either one's sequence tells whether claims are still being applied.
	// The holder makes 30 claims before it crashes; claims of the recovered
	// holder that reused their ring-level identity would be swallowed as
	// duplicates for as many renewals, longer than the bound below.
	seq := func() uint64 { return d.ReplicaAt(1, 0).Replica.LeaseState().Seq }
	waitFor("30 claims applied", 5*time.Second, func() bool { return seq() >= 30 })
	d.CrashReplica(1, holder)
	withdrawn()
	time.Sleep(2 * pol.renewEvery) // let claims already in flight apply
	before := seq()
	time.Sleep(4 * pol.renewEvery)
	if after := seq(); after != before {
		t.Fatalf("lease seq moved %d -> %d with the holder down", before, after)
	}
	withdrawn()

	if err := d.RecoverReplica(1, holder); err != nil {
		t.Fatal(err)
	}
	waitFor("claiming again after recovery", 20*pol.renewEvery, func() bool { return seq() > before })
	waitFor("the recovered holder serving", 5*time.Second, serving(1))
	waitFor("the recovered holder advertised", 5*time.Second, advertised(1))
	onlyReplicaEndpoints()

	d.Stop()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "leaseRenewer") {
		t.Fatalf("a lease renewer outlived Deployment.Stop:\n%s", stacks)
	}
}
