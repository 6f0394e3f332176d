package autoshard

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/metrics"
	"mrp/internal/netsim"
	"mrp/internal/rebalance"
	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/ycsb"
)

const records = 1000

// deployStore builds the standard two-partition range-partitioned store
// the controller tests run against: partition 0 owns [0, user500),
// partition 1 owns [user500, inf).
func deployStore(t *testing.T) *store.Deployment {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	d, err := store.Deploy(store.DeployConfig{
		Net:          net,
		Partitions:   2,
		Replicas:     3,
		GlobalRing:   true,
		Partitioner:  store.NewRangePartitioner([]string{ycsb.Key(records / 2)}),
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
	var recs []store.Entry
	for _, o := range ycsb.Load(ycsb.Config{RecordCount: records, ValueSize: 64}) {
		recs = append(recs, store.Entry{Key: o.Key, Value: o.Value})
	}
	d.Preload(recs)
	return d
}

// worker runs fn in a loop (with an optional pause between iterations)
// until stop flips.
func worker(wg *sync.WaitGroup, stop *atomic.Bool, pause time.Duration, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			fn()
			if pause > 0 {
				time.Sleep(pause)
			}
		}
	}()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// hotRate measures partition p's data-op rate over dur via the stats
// surface.
func hotRate(t *testing.T, d *store.Deployment, p int, dur time.Duration) float64 {
	t.Helper()
	before, ok := d.PartitionStats(p)
	if !ok {
		t.Fatalf("no stats for partition %d", p)
	}
	time.Sleep(dur)
	after, _ := d.PartitionStats(p)
	return float64(after.Ops-before.Ops) / dur.Seconds()
}

// TestAutoshardSkewedThenShiftingLoad is the subsystem's acceptance
// scenario: a two-partition store serves a skewed workload (all the heat
// on the top quarter of the key space) until the controller splits the hot
// partition at its median key; the skew then shifts to the bottom of the
// key space, the split-born partition goes cold, and the controller merges
// it back and retires its ring. Assertions: no lost or stale op across the
// controller-initiated reconfigurations (read-your-writes probes), no
// flapping (exactly 1 split and 1 merge for the single skew shift), and
// client throughput never reaching zero for any full timeline window.
func TestAutoshardSkewedThenShiftingLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := deployStore(t)
	tl := metrics.NewTimeline(400 * time.Millisecond)
	record := func(start time.Time, err error) {
		if err == nil {
			tl.RecordOp(time.Now(), time.Since(start))
		}
	}

	var (
		wg      sync.WaitGroup
		stopHot atomic.Bool
		stopAll atomic.Bool
		failMu  sync.Mutex
		fails   []string
		clients []*store.Client
	)
	mkClient := func() *store.Client {
		cl := d.NewClient()
		clients = append(clients, cl)
		return cl
	}
	failf := func(format string, args ...any) {
		failMu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		failMu.Unlock()
	}
	defer func() {
		stopHot.Store(true)
		stopAll.Store(true)
		wg.Wait()
		for _, cl := range clients {
			cl.Close()
		}
	}()

	// Hot workers: hammer the top quarter of the key space — all inside
	// partition 1 — as fast as the store admits.
	for w := 0; w < 4; w++ {
		cl := mkClient()
		rng := rand.New(rand.NewSource(int64(w)))
		worker(&wg, &stopHot, 0, func() {
			k := ycsb.Key(records*3/4 + rng.Intn(records/4))
			if rng.Intn(2) == 0 {
				start := time.Now()
				_, err := cl.Read(k)
				record(start, err)
			} else {
				start := time.Now()
				record(start, cl.Update(k, []byte("hot")))
			}
		})
	}

	// Calibrate thresholds against this host's actual throughput (absolute
	// numbers vary wildly, e.g. under the race detector).
	rate := hotRate(t, d, 1, 600*time.Millisecond)
	if rate <= 0 {
		t.Fatal("no load reached partition 1")
	}

	// Background workers: steady moderate traffic on partition 0 — never
	// reconfigured, so the timeline can never legitimately hit zero.
	bgPause := time.Duration(2 / (0.25 * rate) * float64(time.Second))
	for w := 0; w < 2; w++ {
		cl := mkClient()
		rng := rand.New(rand.NewSource(int64(100 + w)))
		worker(&wg, &stopAll, bgPause, func() {
			start := time.Now()
			_, err := cl.Read(ycsb.Key(rng.Intn(records / 2)))
			record(start, err)
		})
	}

	// Read-your-writes probes: own disjoint keys on every side of the
	// coming reconfigurations, write a counter and read it straight back.
	// Paced relative to the calibrated rate so they never keep a cold
	// partition warm.
	rywPause := time.Duration(1 / (0.01 * rate) * float64(time.Second))
	if rywPause > 100*time.Millisecond {
		rywPause = 100 * time.Millisecond
	}
	for w := 0; w < 2; w++ {
		cl := mkClient()
		keys := []string{
			fmt.Sprintf("%s-w%d", ycsb.Key(200), w), // partition 0
			fmt.Sprintf("%s-w%d", ycsb.Key(600), w), // partition 1, stays
			fmt.Sprintf("%s-w%d", ycsb.Key(900), w), // partition 1, moves with the split
		}
		seq := 0
		worker(&wg, &stopAll, rywPause, func() {
			seq++
			want := []byte(fmt.Sprintf("v%08d", seq))
			for _, k := range keys {
				start := time.Now()
				if err := cl.Insert(k, want); err != nil {
					failf("insert %s: %v", k, err)
					return
				}
				record(start, nil)
				got, err := cl.Read(k)
				if err != nil {
					failf("read %s: %v", k, err)
					return
				}
				if string(got) != string(want) {
					failf("stale read %s: got %q want %q", k, got, want)
					return
				}
			}
		})
	}

	coord, err := rebalance.New(rebalance.Config{
		Store:         d,
		ChunkInterval: 200 * time.Microsecond,
		OnStep:        func(s string) { tl.Mark(time.Now(), s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctrl, err := New(Config{
		Store:          d,
		Rebalancer:     coord,
		Interval:       40 * time.Millisecond,
		SplitOpsPerSec: 0.75 * rate,
		MergeOpsPerSec: 0.10 * rate,
		ViolationTicks: 3,
		Cooldown:       500 * time.Millisecond,
		SplitProtect:   1200 * time.Millisecond,
		MaxPartitions:  3,
		OnAction:       func(a string) { tl.Mark(time.Now(), "autoshard: "+a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Stop()

	// Phase 1: the controller must notice the hot partition and split it.
	// (The committed partition count flips at the publish phase, before
	// the coordinator returns and the controller counts the split — wait
	// for both.)
	waitFor(t, 30*time.Second, "controller-initiated split", func() bool {
		return d.Partitions() == 3 && ctrl.Splits() == 1
	})

	// Phase 2: the skew shifts — the heat stops entirely, leaving the
	// split-born partition cold (the background partition-0 traffic keeps
	// flowing). The controller must merge it back, exactly once.
	stopHot.Store(true)
	waitFor(t, 30*time.Second, "controller-initiated merge", func() bool {
		return d.Partitions() == 2 && ctrl.Merges() == 1
	})

	// Settle: nothing else may happen (no split↔merge flapping).
	time.Sleep(1500 * time.Millisecond)
	if s, m := ctrl.Splits(), ctrl.Merges(); s != 1 || m != 1 {
		t.Fatalf("flapping: %d splits, %d merges after a single skew shift", s, m)
	}

	stopAll.Store(true)
	wg.Wait()

	failMu.Lock()
	defer failMu.Unlock()
	if len(fails) > 0 {
		t.Fatalf("lost/stale ops across reconfigurations: %v", fails)
	}

	// Client throughput never dropped to zero for a full window: the
	// migrations' freeze windows stalled only the moving range.
	samples := tl.Samples()
	for i, s := range samples {
		if i == 0 || !s.Complete {
			continue
		}
		if s.Throughput == 0 {
			t.Fatalf("window %d (%v): throughput hit zero during the run\nevents: %v",
				i, s.At, tl.Events())
		}
	}
	if ring := d.PartitionRing(2); ring != 0 {
		t.Fatalf("split-born partition's ring %d not retired after the merge", ring)
	}
}

// TestLeaderFailoverResolvesAndResumes kills the leading controller while
// its coordinator is mid-plan (simulated crash after the copy phase) and
// checks the lease half of coordinator failover: the successor becomes
// leader, ResolvePending rolls the orphaned plan back, and the successor's
// own policy then completes the split the dead leader attempted.
func TestLeaderFailoverResolvesAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := deployStore(t)

	var (
		wg      sync.WaitGroup
		stopAll atomic.Bool
		clients []*store.Client
	)
	defer func() {
		stopAll.Store(true)
		wg.Wait()
		for _, cl := range clients {
			cl.Close()
		}
	}()
	for w := 0; w < 4; w++ {
		cl := d.NewClient()
		clients = append(clients, cl)
		rng := rand.New(rand.NewSource(int64(w)))
		worker(&wg, &stopAll, 0, func() {
			_ = cl.Update(ycsb.Key(records*3/4+rng.Intn(records/4)), []byte("hot"))
		})
	}
	rate := hotRate(t, d, 1, 600*time.Millisecond)
	if rate <= 0 {
		t.Fatal("no load reached partition 1")
	}
	mkConfig := func(coord *rebalance.Coordinator, onAction func(string)) Config {
		return Config{
			Store:          d,
			Rebalancer:     coord,
			Interval:       40 * time.Millisecond,
			SplitOpsPerSec: 0.5 * rate,
			ViolationTicks: 2,
			Cooldown:       400 * time.Millisecond,
			MaxPartitions:  3,
			OnAction:       onAction,
		}
	}

	// Leader A: its coordinator "dies" right after the copy phase, leaving
	// its plan recorded (not published) and the frozen range behind.
	var actionsA []string
	var muA sync.Mutex
	coordA, err := rebalance.New(rebalance.Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coordA.Close()
	coordA.CrashAfter("copy")
	ctrlA, err := New(mkConfig(coordA, func(a string) {
		muA.Lock()
		actionsA = append(actionsA, a)
		muA.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctrlA.Start()

	waitFor(t, 30*time.Second, "leader A to crash mid-plan", func() bool {
		muA.Lock()
		defer muA.Unlock()
		for _, a := range actionsA {
			if strings.Contains(a, "split 1") && strings.Contains(a, "failed") {
				return true
			}
		}
		return false
	})
	// The orphaned plan must stay recorded for the successor.
	if _, ok := d.PendingPlan(); !ok {
		t.Fatal("crashed plan left no record")
	}
	// Kill the leader: its loop stops and its lease is released.
	ctrlA.Stop()

	// Successor B: must take the lease, resolve the orphan, and complete
	// the split itself.
	var actionsB []string
	var muB sync.Mutex
	coordB, err := rebalance.New(rebalance.Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer coordB.Close()
	ctrlB, err := New(mkConfig(coordB, func(a string) {
		muB.Lock()
		actionsB = append(actionsB, a)
		muB.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ctrlB.Start()
	defer ctrlB.Stop()

	waitFor(t, 30*time.Second, "successor to resolve and re-split", func() bool {
		return d.Partitions() == 3 && ctrlB.Splits() == 1
	})
	muB.Lock()
	resolved := false
	for _, a := range actionsB {
		if strings.Contains(a, "resolved predecessor split plan") {
			resolved = true
		}
	}
	muB.Unlock()
	if !resolved {
		t.Fatalf("successor never reported resolving the orphaned plan; actions: %v", actionsB)
	}
	if aborts := coordB.Aborts(); aborts != 1 {
		t.Fatalf("successor aborts = %d, want 1 (the orphaned prepared plan)", aborts)
	}
	if p, ok := d.PendingPlan(); ok {
		t.Fatalf("plan record survived resolution and re-split: %+v", p)
	}

	// The data served through all of it: spot-check a migrated key.
	stopAll.Store(true)
	wg.Wait()
	cl := d.NewClient()
	defer cl.Close()
	if _, err := cl.Read(ycsb.Key(records * 3 / 4)); err != nil {
		t.Fatalf("read of a migrated key after failover: %v", err)
	}
}

// countingReconfigurer never reconfigures; it counts ResolvePending calls.
type countingReconfigurer struct{ resolves atomic.Int32 }

func (f *countingReconfigurer) SplitPartition(int, string) (int, error) {
	return 0, errors.New("fake: no splits")
}

func (f *countingReconfigurer) MergePartitions(int, int) error {
	return errors.New("fake: no merges")
}

func (f *countingReconfigurer) ResolvePending() (*store.Plan, error) {
	f.resolves.Add(1)
	return nil, nil
}

// TestOneControllerLeads checks the controller lease: a controller that is
// built but never started holds nothing, exactly one started controller
// leads, and a standby takes over only once the leader stops, running
// ResolvePending once per takeover.
func TestOneControllerLeads(t *testing.T) {
	d := deployStore(t)
	fake := &countingReconfigurer{}
	mk := func() *Controller {
		c, err := New(Config{Store: d, Rebalancer: fake, Interval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	idle := mk()
	t.Cleanup(func() { idle.Start(); idle.Stop() }) // only to release its client
	a, b := mk(), mk()

	a.Start()
	waitFor(t, 5*time.Second, "a to lead", a.Leading)
	b.Start()
	defer b.Stop()
	time.Sleep(50 * time.Millisecond) // ten of b's ticks
	if b.Leading() {
		t.Fatal("b leads while a runs")
	}

	a.Stop()
	waitFor(t, 5*time.Second, "b to take over", b.Leading)
	time.Sleep(50 * time.Millisecond)
	if n := fake.resolves.Load(); n != 2 {
		t.Fatalf("ResolvePending ran %d times, want 2 (once per takeover)", n)
	}
}
