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

// RebalanceResult is the elastic-rebalancing timeline: windowed throughput
// and latency around a live partition split, with the protocol steps
// (provision, prepare, copy, activate, publish, commit) as event markers.
// The claim mirrors Figure 8's shape for a planned topology change instead
// of a failure: a short dip while the moved range is frozen, then recovery
// to steady state with one more partition serving.
type RebalanceResult struct {
	Samples []metrics.Sample
	Events  []metrics.Event
	// SteadyOps is pre-split throughput, DipOps the minimum around the
	// split, RecoveredOps the post-split steady state.
	SteadyOps, DipOps, RecoveredOps float64
	// SplitDuration is the wall time SplitPartition took end to end.
	SplitDuration time.Duration
	// MovedKeys is how many records changed ownership.
	MovedKeys int
}

// Rebalance measures a live split: a two-partition range-partitioned
// MRP-Store under a closed-loop YCSB-A workload, with partition 1 split at
// the key-space three-quarter point onto a freshly subscribed ring
// mid-run.
func Rebalance(opts Options) RebalanceResult {
	total := time.Duration(6 * opts.PointSeconds * float64(time.Second))
	splitAt := total * 4 / 10
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
		// Rate leveling at the paper's λ: the merge of a busy partition
		// ring with the mostly idle global ring advances at the global
		// ring's skip rate, so λ must exceed the offered load (Section 4).
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

	res := RebalanceResult{}
	var injectWG sync.WaitGroup
	injectWG.Add(1)
	go func() {
		defer injectWG.Done()
		time.Sleep(splitAt)
		tl.Mark(time.Now(), "split initiated")
		start := time.Now()
		if _, err := coord.SplitPartition(1, ycsb.Key(records*3/4)); err != nil {
			tl.Mark(time.Now(), "split failed: "+err.Error())
			return
		}
		res.SplitDuration = time.Since(start)
		res.MovedKeys = records - records*3/4
	}()
	wg.Wait()
	injectWG.Wait()

	samples := tl.Samples()
	res.Samples = samples
	res.Events = tl.Events()
	splitIdx := int(splitAt / window)
	res.SteadyOps = meanThroughput(samples, 1, splitIdx)
	res.DipOps = minThroughput(samples, splitIdx-1, splitIdx+3)
	res.RecoveredOps = meanThroughput(samples, splitIdx+3, len(samples)-1)
	opts.logf("rebalance steady=%.0f dip=%.0f recovered=%.0f ops/s (split %v, %d keys moved)",
		res.SteadyOps, res.DipOps, res.RecoveredOps, res.SplitDuration, res.MovedKeys)
	return res
}

// RenderRebalance prints the rebalancing timeline.
func RenderRebalance(w io.Writer, res RebalanceResult) {
	fmt.Fprintln(w, "Rebalance — live partition split under YCSB-A load")
	fmt.Fprintf(w, "steady=%.0f ops/s  dip=%.0f ops/s  recovered=%.0f ops/s  (split %s, %d keys moved)\n",
		res.SteadyOps, res.DipOps, res.RecoveredOps,
		res.SplitDuration.Round(time.Millisecond), res.MovedKeys)
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
