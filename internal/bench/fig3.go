package bench

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"mrp/internal/metrics"
	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/ringpaxos"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// Fig3Row is one point of Figure 3: a (storage mode, request size) pair
// with the four metrics the paper reports.
type Fig3Row struct {
	Mode storage.Mode
	Size int
	// ThroughputMbps is the delivered payload rate in megabits/s
	// (top-left graph).
	ThroughputMbps float64
	// MeanLatency is the propose-to-deliver latency (top-right graph).
	MeanLatency time.Duration
	// CoordProxyMBps is the coordinator's message-processing volume in
	// MB/s; the paper's coordinator-CPU graph (bottom-left) is proxied by
	// this figure since goroutine CPU cannot be attributed directly.
	CoordProxyMBps float64
	// LatencyCDF is the latency distribution (bottom-right graph reports
	// it for 32 KB requests).
	LatencyCDF []metrics.CDFPoint
	// FracUnder10ms backs the paper's claim that >90% of 32 KB sync-disk
	// requests complete within 10 ms.
	FracUnder10ms float64
}

// Fig3Sizes are the request sizes of the paper's sweep.
var Fig3Sizes = []int{512, 2048, 8192, 32768}

// Fig3Modes are the five storage modes of the paper's sweep.
var Fig3Modes = []storage.Mode{
	storage.SyncHDD, storage.SyncSSD, storage.AsyncHDD, storage.AsyncSSD, storage.InMemory,
}

// Fig3 reproduces the Multi-Ring Paxos baseline (Section 8.3.1): one ring,
// three processes that are all proposer+acceptor+learner, ten proposer
// threads, ring batching disabled, request sizes 512 B to 32 KB across the
// five storage modes.
func Fig3(opts Options) []Fig3Row {
	var rows []Fig3Row
	for _, mode := range Fig3Modes {
		for _, size := range Fig3Sizes {
			row := fig3Point(opts, mode, size)
			opts.logf("fig3 %-16s %6dB  %8.1f Mbps  %8s mean", mode, size,
				row.ThroughputMbps, row.MeanLatency.Round(10*time.Microsecond))
			rows = append(rows, row)
		}
	}
	return rows
}

// fig3Point measures one (mode, size) point with ring batching disabled,
// as in the paper's baseline.
func fig3Point(opts Options, mode storage.Mode, size int) Fig3Row {
	return fig3PointBatched(opts, mode, size, 0)
}

// fig3PointBatched is fig3Point with configurable coordinator batching
// (used by the batching ablation).
func fig3PointBatched(opts Options, mode storage.Mode, size, batchBytes int) Fig3Row {
	return fig3Run(opts, mode, size, batchBytes, false)
}

// fig3Run is the general driver: ring-level batching via batchBytes,
// transport-level write coalescing via transportBatch. The Figure 3
// baseline runs with both off, as in the paper ("batching is disabled");
// the ablations turn each on separately.
func fig3Run(opts Options, mode storage.Mode, size, batchBytes int, transportBatch bool) Fig3Row {
	const (
		nodes   = 3
		threads = 10 // "Proposers have 10 threads" (Section 8.3.1)
	)
	net := netsim.New(
		netsim.WithUniformLatency(50*time.Microsecond), // 0.1 ms RTT switch
		netsim.WithBandwidth(10<<30/8),                 // 10 Gbps NICs
		netsim.WithBatch(transport.BatchPolicy{Disabled: !transportBatch}),
	)
	defer net.Close()

	peers := make([]ringpaxos.Peer, nodes)
	for i := range peers {
		peers[i] = ringpaxos.Peer{
			ID:    msg.NodeID(i + 1),
			Addr:  transport.Addr(fmt.Sprintf("fig3-n%d", i)),
			Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
		}
	}
	procs := make([]*ringpaxos.Process, nodes)
	routers := make([]*transport.Router, nodes)
	for i := range peers {
		ep := net.Endpoint(peers[i].Addr)
		proc, err := ringpaxos.New(ringpaxos.Config{
			Ring:          1,
			Self:          peers[i].ID,
			Peers:         peers,
			Coordinator:   peers[0].ID,
			Log:           storage.NewLogOnDisk(mode, storage.NewDisk(mode.DiskFor().Scale(opts.Scale))),
			BatchMaxBytes: batchBytes, // 0: "Batching is disabled in the ring"
			BatchDelay:    500 * time.Microsecond,
			// Generous: the LAN is loss-free, and premature re-proposals
			// would double the sync-disk load exactly when it is slowest.
			RetryTimeout: 2 * time.Second,
		}, ep)
		if err != nil {
			panic(err)
		}
		router := transport.NewRouter(ep)
		router.Ring(1, proc.In())
		router.Start()
		procs[i] = proc
		routers[i] = router
	}
	for _, p := range procs {
		p.Start()
	}
	defer func() {
		for i := range procs {
			procs[i].Stop()
			routers[i].Stop()
		}
	}()

	// Per-node delivery dispatch: payloads carry (thread, threadSeq) so the
	// proposing thread can be woken when its request is learned.
	type key struct {
		thread uint16
		seq    uint64
	}
	var mu sync.Mutex
	waiters := make(map[key]chan struct{})
	notify := func(k key) {
		mu.Lock()
		ch, ok := waiters[k]
		if ok {
			delete(waiters, k)
		}
		mu.Unlock()
		if ok {
			close(ch)
		}
	}
	stopDrain := make(chan struct{})
	var drainWG sync.WaitGroup
	for _, p := range procs {
		drainWG.Add(1)
		go func(p *ringpaxos.Process) {
			defer drainWG.Done()
			for {
				select {
				case d := <-p.Decisions():
					for _, e := range d.Value.Batch {
						if len(e.Data) >= 10 {
							notify(key{
								thread: binary.BigEndian.Uint16(e.Data),
								seq:    binary.BigEndian.Uint64(e.Data[2:]),
							})
						}
					}
				case <-stopDrain:
					return
				}
			}
		}(p)
	}

	hist := &metrics.Histogram{}
	counter := metrics.NewCounter()
	coordBase := procs[0].Stats().BytesIn.Load() + procs[0].Stats().BytesOut.Load()

	deadline := time.Now().Add(opts.point())
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			payload := make([]byte, size)
			binary.BigEndian.PutUint16(payload, uint16(t))
			node := procs[t%nodes]
			var seq uint64
			for time.Now().Before(deadline) {
				seq++
				binary.BigEndian.PutUint64(payload[2:], seq)
				k := key{thread: uint16(t), seq: seq}
				ch := make(chan struct{})
				mu.Lock()
				waiters[k] = ch
				mu.Unlock()
				start := time.Now()
				buf := make([]byte, size)
				copy(buf, payload)
				if err := node.Propose(buf); err != nil {
					return
				}
				select {
				case <-ch:
					hist.Record(time.Since(start))
					counter.Add(1, uint64(size))
				case <-time.After(10 * time.Second):
					return
				}
			}
		}(t)
	}
	wg.Wait()
	close(stopDrain)
	drainWG.Wait()

	elapsed := opts.PointSeconds
	coordBytes := procs[0].Stats().BytesIn.Load() + procs[0].Stats().BytesOut.Load() - coordBase
	_, mbps := counter.Rates()
	return Fig3Row{
		Mode:           mode,
		Size:           size,
		ThroughputMbps: mbps,
		MeanLatency:    hist.Mean(),
		CoordProxyMBps: float64(coordBytes) / 1e6 / elapsed,
		LatencyCDF:     hist.CDF(),
		// Unscaled threshold: the host's ~2 ms timer floor dominates scaled
		// sync writes, so run Figure 3 at -scale 1 for latency fidelity.
		FracUnder10ms: hist.FractionBelow(10 * time.Millisecond),
	}
}
