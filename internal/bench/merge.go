package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mrp/internal/metrics"
	"mrp/internal/netsim"
	"mrp/internal/rebalance"
	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/ycsb"
)

// MergeResult is the bidirectional-elasticity timeline: windowed
// throughput and latency across a full split → merge round trip under
// YCSB-A load, with the reconfiguration engine's steps as event markers.
// The claim extends the Rebalance scenario to the shrink path: both
// reconfigurations cost a short dip while their range is frozen, the
// merged-back deployment returns to the pre-split steady state, and the
// donor's ring is fully retired (its ID recycled by the allocator).
type MergeResult struct {
	Samples []metrics.Sample
	Events  []metrics.Event
	// SteadyOps is pre-split throughput, MergedOps the steady state after
	// the merge returned the deployment to its original shape.
	SteadyOps, MergedOps float64
	// SplitDuration and MergeDuration are the wall times of the two
	// reconfigurations end to end.
	SplitDuration, MergeDuration time.Duration
	// MovedKeys is how many records changed ownership in the merge.
	MovedKeys int
	// RingRetired reports that the donor's ring left the topology.
	RingRetired bool
}

// Merge measures the split → merge round trip: a two-partition
// range-partitioned MRP-Store under a closed-loop YCSB-A workload splits
// partition 1 at the key-space three-quarter point, runs three-partition
// for a while, then merges the split-born partition back and retires its
// ring, all mid-run.
func Merge(opts Options) MergeResult {
	total := time.Duration(8 * opts.PointSeconds * float64(time.Second))
	splitAt := total * 3 / 10
	mergeAt := total * 6 / 10
	window := total / 24

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
		// Rate leveling at the paper's λ (Section 4): the merge of busy
		// partition rings with the mostly idle global ring must advance at
		// least as fast as the offered load.
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
		Store:  d,
		OnStep: func(s string) { tl.Mark(time.Now(), s) },
	})
	if err != nil {
		panic(err)
	}
	defer coord.Close()

	threads := opts.Clients / 4
	if threads < 4 {
		threads = 4
	}
	deadline := time.Now().Add(total)
	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			cl := d.NewClient()
			defer cl.Close()
			gen := ycsb.New(ycsb.Config{Workload: ycsb.WorkloadA, RecordCount: records, ValueSize: 100, Seed: int64(ti)})
			for time.Now().Before(deadline) {
				o := gen.Next()
				start := time.Now()
				var err error
				switch o.Kind {
				case ycsb.OpRead:
					_, err = cl.Read(o.Key)
				case ycsb.OpUpdate:
					err = cl.Update(o.Key, o.Value)
				default:
					continue
				}
				if err != nil {
					continue
				}
				tl.RecordOp(time.Now(), time.Since(start))
			}
		}(ti)
	}

	res := MergeResult{}
	var injectWG sync.WaitGroup
	injectWG.Add(1)
	go func() {
		defer injectWG.Done()
		time.Sleep(splitAt)
		tl.Mark(time.Now(), "split initiated")
		start := time.Now()
		newPart, err := coord.SplitPartition(1, ycsb.Key(records*3/4))
		if err != nil {
			tl.Mark(time.Now(), "split failed: "+err.Error())
			return
		}
		res.SplitDuration = time.Since(start)

		time.Sleep(mergeAt - splitAt - res.SplitDuration)
		tl.Mark(time.Now(), "merge initiated")
		start = time.Now()
		if err := coord.MergePartitions(1, newPart); err != nil {
			tl.Mark(time.Now(), "merge failed: "+err.Error())
			return
		}
		res.MergeDuration = time.Since(start)
		res.MovedKeys = records - records*3/4
		res.RingRetired = d.PartitionRing(newPart) == 0
	}()
	wg.Wait()
	injectWG.Wait()

	samples := tl.Samples()
	res.Samples = samples
	res.Events = tl.Events()
	splitIdx := int(splitAt / window)
	mergeIdx := int(mergeAt / window)
	res.SteadyOps = meanThroughput(samples, 1, splitIdx)
	res.MergedOps = meanThroughput(samples, mergeIdx+3, len(samples)-1)
	opts.logf("merge round trip steady=%.0f merged=%.0f ops/s (split %v, merge %v, %d keys returned, ring retired=%v)",
		res.SteadyOps, res.MergedOps, res.SplitDuration, res.MergeDuration, res.MovedKeys, res.RingRetired)
	return res
}

// RenderMerge prints the split → merge elasticity timeline.
func RenderMerge(w io.Writer, res MergeResult) {
	fmt.Fprintln(w, "Merge — split → merge round trip under YCSB-A load (bidirectional elasticity)")
	fmt.Fprintf(w, "steady=%.0f ops/s  merged=%.0f ops/s  (split %s, merge %s, %d keys returned, ring retired=%v)\n",
		res.SteadyOps, res.MergedOps,
		res.SplitDuration.Round(time.Millisecond), res.MergeDuration.Round(time.Millisecond),
		res.MovedKeys, res.RingRetired)
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
