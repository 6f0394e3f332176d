package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mrp/internal/autoshard"
	"mrp/internal/metrics"
	"mrp/internal/netsim"
	"mrp/internal/rebalance"
	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/ycsb"
)

// AutoshardResult is the auto-sharding timeline: windowed throughput and
// latency under a skewed-then-shifting workload with a load-driven
// controller in charge of the topology. The claim completes the
// elasticity story: nobody calls SplitPartition or MergePartitions — the
// controller watches per-partition load through the stats surface, splits
// the hot partition at the median key of its range once the skew holds,
// and merges the cold split-born partition back (retiring its ring) after
// the skew shifts away, without flapping.
type AutoshardResult struct {
	Samples []metrics.Sample
	Events  []metrics.Event
	// SteadyOps is the pre-split throughput under the skew; ShiftedOps the
	// steady state after the skew moved and the topology settled back.
	SteadyOps, ShiftedOps float64
	// Splits and Merges are the controller-initiated reconfiguration
	// counts (1 and 1 for a clean run: no flapping).
	Splits, Merges int
	// HotRate is the calibrated hot-partition op rate the thresholds were
	// derived from.
	HotRate float64
}

// Autoshard measures the auto-sharding controller end to end: a
// two-partition range-partitioned MRP-Store serves a closed-loop workload
// whose heat sits on the top quarter of the key space; after 45% of the
// run the skew shifts to the bottom half at a moderate rate. The
// controller (thresholds calibrated against the measured hot rate) must
// split the hot partition mid-run and merge it back after the shift.
func Autoshard(opts Options) AutoshardResult {
	total := time.Duration(10 * opts.PointSeconds * float64(time.Second))
	shiftAt := total * 45 / 100
	window := total / 25

	net := netsim.New(
		netsim.WithUniformLatency(50*time.Microsecond),
		netsim.WithBandwidth(10<<30/8),
	)
	defer net.Close()
	records := opts.Records
	d, err := store.Deploy(store.DeployConfig{
		Net:         net,
		Partitions:  2,
		Replicas:    3,
		GlobalRing:  true,
		Partitioner: store.NewRangePartitioner([]string{ycsb.Key(records / 2)}),
		StorageMode: storage.InMemory,
		// Rate leveling at the paper's λ (Section 4), as in the other
		// elasticity scenarios.
		SkipInterval: 5 * time.Millisecond,
		SkipRate:     9000,
		RetryTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer d.Stop()
	var recs []store.Entry
	for _, o := range ycsb.Load(ycsb.Config{RecordCount: records, ValueSize: 100}) {
		recs = append(recs, store.Entry{Key: o.Key, Value: o.Value})
	}
	d.Preload(recs)

	tl := metrics.NewTimeline(window)
	coord, err := rebalance.New(rebalance.Config{
		Store:         d,
		ChunkInterval: 200 * time.Microsecond, // migration budget: trickle, don't saturate
		OnStep:        func(s string) { tl.Mark(time.Now(), s) },
	})
	if err != nil {
		panic(err)
	}
	defer coord.Close()

	threads := opts.Clients / 4
	if threads < 4 {
		threads = 4
	}
	var (
		shifted atomic.Bool
		pace    atomic.Int64 // ns between ops after the shift
	)
	deadline := time.Now().Add(total)
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			cl := d.NewClient()
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(ti)))
			for time.Now().Before(deadline) {
				var k string
				if !shifted.Load() {
					// Skew: all heat on the top quarter (partition 1).
					k = ycsb.Key(records*3/4 + rng.Intn(records/4))
				} else {
					// Shifted: moderate, paced load on the bottom half
					// (partition 0); the split-born partition goes cold.
					k = ycsb.Key(rng.Intn(records / 2))
					if p := pace.Load(); p > 0 {
						time.Sleep(time.Duration(p))
					}
				}
				start := time.Now()
				var err error
				if rng.Intn(2) == 0 {
					_, err = cl.Read(k)
				} else {
					err = cl.Update(k, []byte("autoshard"))
				}
				if err != nil {
					continue
				}
				tl.RecordOp(time.Now(), time.Since(start))
			}
		}(ti)
	}

	// Calibrate the thresholds against this host's actual hot rate, then
	// hand the topology to the controller.
	time.Sleep(total * 5 / 100)
	before, _ := d.PartitionStats(1)
	calib := total * 10 / 100
	time.Sleep(calib)
	after, _ := d.PartitionStats(1)
	hotRate := float64(after.Ops-before.Ops) / calib.Seconds()

	interval := window / 3
	if interval < 20*time.Millisecond {
		interval = 20 * time.Millisecond
	}
	if interval > 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	ctrl, err := autoshard.New(autoshard.Config{
		Store:          d,
		Rebalancer:     coord,
		Interval:       interval,
		SplitOpsPerSec: 0.75 * hotRate,
		MergeOpsPerSec: 0.10 * hotRate,
		ViolationTicks: 3,
		Cooldown:       total / 20,
		SplitProtect:   total / 8,
		MaxPartitions:  3,
		OnAction:       func(a string) { tl.Mark(time.Now(), "autoshard: "+a) },
	})
	if err != nil {
		panic(err)
	}
	ctrl.Start()

	// Shift the skew mid-run.
	go func() {
		time.Sleep(time.Until(deadline) - (total - shiftAt))
		pace.Store(int64(float64(threads) / (0.3 * hotRate) * float64(time.Second)))
		shifted.Store(true)
		tl.Mark(time.Now(), "skew shifts to bottom half")
	}()

	wg.Wait()
	ctrl.Stop()

	res := AutoshardResult{HotRate: hotRate}
	res.Splits, res.Merges = ctrl.Splits(), ctrl.Merges()
	samples := tl.Samples()
	res.Samples = samples
	res.Events = tl.Events()
	shiftIdx := int(shiftAt / window)
	res.SteadyOps = meanThroughput(samples, 2, shiftIdx)
	res.ShiftedOps = meanThroughput(samples, shiftIdx+3, len(samples)-1)
	opts.logf("autoshard steady=%.0f shifted=%.0f ops/s (hot rate %.0f, %d splits, %d merges)",
		res.SteadyOps, res.ShiftedOps, hotRate, res.Splits, res.Merges)
	return res
}

// RenderAutoshard prints the auto-sharding timeline.
func RenderAutoshard(w io.Writer, res AutoshardResult) {
	fmt.Fprintln(w, "Autoshard — load-driven split and merge under a shifting skew")
	fmt.Fprintf(w, "steady=%.0f ops/s  shifted=%.0f ops/s  (calibrated hot rate %.0f ops/s, %d controller splits, %d controller merges)\n",
		res.SteadyOps, res.ShiftedOps, res.HotRate, res.Splits, res.Merges)
	fmt.Fprintln(w, "events:")
	for _, e := range res.Events {
		fmt.Fprintf(w, "  %8s  %s\n", e.At.Round(10*time.Millisecond), e.Label)
	}
	fmt.Fprintln(w, "timeline (window, ops/s, mean latency):")
	for _, s := range res.Samples {
		fmt.Fprintf(w, "  %8s %10.0f %12s\n",
			s.At.Round(10*time.Millisecond), s.Throughput, s.MeanLat.Round(100*time.Microsecond))
	}
}
