package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mrp/internal/metrics"
	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/rebalance"
	"mrp/internal/storage"
	"mrp/internal/store"
)

// Fig8Result is the recovery timeline of Figure 8: windowed throughput and
// latency with the paper's five event markers — (1) replica terminated,
// (2) replica checkpoint, (3) acceptor log trimming, (4) replica recovery,
// (5) re-proposals due to recovery traffic. The reproduction goes one step
// beyond the paper's static deployment: the timeline opens with a live
// partition split ("0:live split"), and the replica that is terminated and
// later recovered belongs to the partition that split created — recovery
// is topology-driven, so an elastic deployment keeps its fault tolerance.
type Fig8Result struct {
	Samples []metrics.Sample
	Events  []metrics.Event
	// SteadyOps is the pre-failure throughput; DipOps is the minimum
	// throughput in the window around recovery; RecoveredOps is the
	// post-recovery steady state. The paper's claim is a short dip and a
	// return to steady state.
	SteadyOps, DipOps, RecoveredOps float64
}

// Fig8 reproduces the recovery experiment (Section 8.5) on an elastic
// deployment: a range-partitioned store (async disk) under a fixed
// fraction of peak load is split live early in the run; a replica of the
// new partition is terminated, the survivors keep checkpointing (allowing
// acceptor log trimming), and the replica later recovers by fetching a
// remote checkpoint — or replaying the split's ring from the
// partition's birth state — and replaying the suffix from the acceptors.
// The paper's 300 s timeline is compressed by opts.Scale.
func Fig8(opts Options) Fig8Result {
	// Timeline: total T, split at T*0.15, kill at T*0.3, recover at T*0.8 —
	// the paper's 300 s run terminates a replica early and restarts it at
	// 240 s; the split is added ahead of the kill so the crashed replica is
	// one the deployment grew at runtime.
	total := time.Duration(10 * opts.PointSeconds * float64(time.Second))
	splitAt := total * 15 / 100
	killAt := total * 3 / 10
	recoverAt := total * 8 / 10
	window := total / 30

	net := netsim.New(
		netsim.WithUniformLatency(50*time.Microsecond),
		netsim.WithBandwidth(10<<30/8),
	)
	defer net.Close()
	d, err := store.Deploy(store.DeployConfig{
		Net:          net,
		Partitions:   1,
		Replicas:     3,
		Partitioner:  store.NewRangePartitioner(nil),
		StorageMode:  storage.AsyncHDD,
		DiskScale:    opts.Scale,
		RetryTimeout: 300 * time.Millisecond,
		// Replicas checkpoint periodically; acceptors trim after a quorum
		// of checkpoints.
		CheckpointEvery: total / 8,
		TrimInterval:    total / 10,
	})
	if err != nil {
		panic(err)
	}
	defer d.Stop()

	tl := metrics.NewTimeline(window)
	// Mark trim events on the timeline.
	d.TrimCoordinators()[0].OnTrim(func(msg.Instance) {
		tl.Mark(time.Now(), "3:acceptor log trimming")
	})
	coord, err := rebalance.New(rebalance.Config{Store: d})
	if err != nil {
		panic(err)
	}
	defer coord.Close()

	// Track checkpoints by polling replica counters across all partitions,
	// including the one the split adds. Handles are read through
	// ReplicaAt: the recovery injection below replaces one concurrently.
	const replicasPer = 3
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		last := uint64(0)
		t := time.NewTicker(window / 2)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				var sum uint64
				for p := 0; p < d.Partitions(); p++ {
					for r := 0; r < replicasPer; r++ {
						if h := d.ReplicaAt(p, r); h != nil {
							sum += h.Replica.Checkpoints()
						}
					}
				}
				if sum > last {
					tl.Mark(time.Now(), "2:replica checkpoint")
					last = sum
				}
			case <-stopPoll:
				return
			}
		}
	}()

	// Closed-loop clients at moderate parallelism approximate the paper's
	// "75% of peak load" single client. Threads 3-5 write keys the split
	// moves to the new partition.
	const threads = 6
	value := make([]byte, 1024)
	deadline := time.Now().Add(total)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			cl := d.NewClient()
			defer cl.Close()
			seq := 0
			for time.Now().Before(deadline) {
				key := fmt.Sprintf("t%02d-%07d", t, seq%2000)
				seq++
				start := time.Now()
				if err := cl.Insert(key, value); err != nil {
					continue
				}
				tl.RecordOp(time.Now(), time.Since(start))
			}
		}(t)
	}

	// Failure injection on schedule: live split, then crash and recovery
	// of a new-partition replica.
	var injectWG sync.WaitGroup
	injectWG.Add(1)
	go func() {
		defer injectWG.Done()
		time.Sleep(splitAt)
		tl.Mark(time.Now(), "0:live split")
		newPart, err := coord.SplitPartition(0, "t03")
		if err != nil {
			tl.Mark(time.Now(), "split failed: "+err.Error())
			return
		}
		time.Sleep(killAt - splitAt)
		tl.Mark(time.Now(), "1:replica terminated")
		d.CrashReplica(newPart, 2)
		time.Sleep(recoverAt - killAt)
		tl.Mark(time.Now(), "4:replica recovery")
		if err := d.RecoverReplica(newPart, 2); err != nil {
			tl.Mark(time.Now(), "recovery failed: "+err.Error())
			return
		}
		tl.Mark(time.Now(), "5:re-proposals due to recovery traffic")
	}()
	wg.Wait()
	injectWG.Wait()
	close(stopPoll)
	pollWG.Wait()

	samples := tl.Samples()
	res := Fig8Result{Samples: samples, Events: tl.Events()}
	// Windows are attributed by the *recorded* kill/recovery marks, not
	// the schedule: the injection goroutine slips by however long the
	// split (and the recovery exchange) took, which on a slow machine is
	// several windows.
	killT, recT := killAt, recoverAt
	for _, e := range res.Events {
		switch {
		case strings.HasPrefix(e.Label, "1:"):
			killT = e.At
		case strings.HasPrefix(e.Label, "4:"):
			recT = e.At
		}
	}
	// Steady state: windows strictly before the kill.
	killIdx := int(killT / window)
	recIdx := int(recT / window)
	res.SteadyOps = meanThroughput(samples, 1, killIdx)
	res.DipOps = minThroughput(samples, recIdx-1, recIdx+3)
	res.RecoveredOps = meanThroughput(samples, recIdx+3, len(samples)-1)
	opts.logf("fig8 steady=%.0f dip=%.0f recovered=%.0f ops/s (%d events)",
		res.SteadyOps, res.DipOps, res.RecoveredOps, len(res.Events))
	return res
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

func minThroughput(s []metrics.Sample, lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	if hi <= lo {
		return 0
	}
	min := s[lo].Throughput
	for _, x := range s[lo:hi] {
		if x.Throughput < min {
			min = x.Throughput
		}
	}
	return min
}
