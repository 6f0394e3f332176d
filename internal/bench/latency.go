package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"mrp/internal/metrics"
	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/netsim"
	"mrp/internal/ringpaxos"
	"mrp/internal/smr"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// LatencyMode names the two ring settings the figure compares.
type LatencyMode string

// The compared settings: ring-level batching on (the coordinator groups up
// to latencyBatchBytes of proposals into one consensus instance) and off
// (one consensus instance, and one log write, per command).
const (
	LatencyBatched   LatencyMode = "batched"
	LatencyUnbatched LatencyMode = "unbatched"
)

// LatencyModes lists the modes in report order.
var LatencyModes = []LatencyMode{LatencyBatched, LatencyUnbatched}

// latencyBatchBytes and latencyBatchDelay are the coordinator's batch
// bounds in LatencyBatched mode.
const (
	latencyBatchBytes = 64 << 10
	latencyBatchDelay = 200 * time.Microsecond
)

// latencyPayloads and latencyRates are the sweep axes: command payload
// size and offered load (ops/s aggregate; 0 means closed-loop
// saturation).
var (
	latencyPayloads = []int{16, 1024}
	latencyRates    = []int{2000, 0}
)

// LatencyRow is one (mode, payload, rate) point of the latency figure.
type LatencyRow struct {
	Mode         LatencyMode
	PayloadBytes int
	// OfferedRate is the configured aggregate ops/s; 0 is saturation.
	OfferedRate int
	OpsPerSec   float64
	P50         time.Duration
	P99         time.Duration
	P999        time.Duration
	Errors      uint64
}

// latencySM is the replicated application under test: it acknowledges
// each command with a tiny deterministic receipt, so the measured cost is
// ordering + execution plumbing, not application work.
type latencySM struct {
	mu sync.Mutex
	n  uint64
}

func (s *latencySM) Execute(op []byte) []byte {
	s.mu.Lock()
	s.n++
	n := s.n
	s.mu.Unlock()
	return []byte(fmt.Sprintf("ack:%d", n))
}

func (s *latencySM) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []byte(fmt.Sprint(s.n))
}

func (s *latencySM) Restore(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n = 0
	fmt.Sscan(string(b), &s.n)
}

// Latency sweeps payload size × offered rate for each ring setting and
// reports p50/p99/p999 command latency and throughput. The deployment is
// the paper's baseline shape — one ring, three replicas, synchronous SSD
// logs — where every consensus instance pays a disk write: with batching
// off that is one write per command, with batching on one write per
// batch, which is exactly the amortization the figure quantifies.
func Latency(opts Options) []LatencyRow {
	var rows []LatencyRow
	for _, mode := range LatencyModes {
		for _, payload := range latencyPayloads {
			for _, rate := range latencyRates {
				row := latencyPoint(opts, mode, payload, rate)
				rateLabel := fmt.Sprint(row.OfferedRate)
				if row.OfferedRate == 0 {
					rateLabel = "sat"
				}
				opts.logf("latency %-10s %5dB rate=%-5s %9.0f op/s  p50=%v p99=%v p999=%v",
					mode, payload, rateLabel, row.OpsPerSec,
					row.P50.Round(10*time.Microsecond), row.P99.Round(10*time.Microsecond),
					row.P999.Round(10*time.Microsecond))
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// latencyPoint builds a fresh one-ring SMR deployment and drives one
// (mode, payload, rate) point.
func latencyPoint(opts Options, mode LatencyMode, payload, rate int) LatencyRow {
	const nodes = 3
	net := netsim.New(
		netsim.WithUniformLatency(50*time.Microsecond),
		netsim.WithBandwidth(10<<30/8),
	)
	defer net.Close()

	peers := make([]ringpaxos.Peer, nodes)
	for i := range peers {
		peers[i] = ringpaxos.Peer{
			ID:    msg.NodeID(i + 1),
			Addr:  transport.Addr(fmt.Sprintf("lat-n%d", i)),
			Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
		}
	}
	var stops []func()
	diskMode := storage.SyncSSD
	batchBytes := latencyBatchBytes
	if mode == LatencyUnbatched {
		batchBytes = 0
	}
	for i := range peers {
		node := multiring.NewNode(peers[i].ID, net.Endpoint(peers[i].Addr))
		proc, err := node.Join(ringpaxos.Config{
			Ring:          1,
			Peers:         peers,
			Coordinator:   peers[0].ID,
			Log:           storage.NewLogOnDisk(diskMode, storage.NewDisk(diskMode.DiskFor().Scale(opts.Scale))),
			BatchMaxBytes: batchBytes,
			BatchDelay:    latencyBatchDelay,
			// Generous: premature re-proposals would double the sync-disk
			// load exactly when it is slowest.
			RetryTimeout: 2 * time.Second,
		})
		if err != nil {
			panic(err)
		}
		learner := multiring.NewLearner(1, proc)
		rep := smr.NewReplica(smr.ReplicaConfig{
			Node:    node,
			Learner: learner,
			SM:      &latencySM{},
			Ckpt:    storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk)),
		})
		node.Service(rep.HandleService)
		node.Start()
		learner.Start()
		rep.Start()
		stops = append(stops, func() {
			rep.Stop()
			learner.Stop()
			node.Stop()
		})
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	// A few shared proposer-side clients: every worker issuing through the
	// same client is the "proposer thread" shape of the paper's baseline.
	const sharedClients = 6
	addrs := []transport.Addr{peers[0].Addr, peers[1].Addr, peers[2].Addr}
	clients := make([]*smr.Client, sharedClients)
	for i := range clients {
		clients[i] = smr.NewClient(smr.ClientConfig{
			ID:           uint64(100 + i),
			Endpoint:     net.Endpoint(transport.Addr(fmt.Sprintf("lat-cl%d", i))),
			Proposers:    map[msg.RingID][]transport.Addr{1: addrs},
			RetryTimeout: 2 * time.Second,
			Timeout:      20 * time.Second,
		})
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()

	workers := opts.Clients
	if workers < sharedClients {
		workers = sharedClients
	}
	var (
		ops  metrics.Counter
		errs metrics.Counter
		hist metrics.Histogram
	)
	op := make([]byte, payload)
	deadline := time.Now().Add(opts.point())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w%sharedClients]
			// Open-loop pacing: each worker owns 1/workers of the offered
			// rate and issues on its own schedule, so queueing delay shows
			// up in the measured latency instead of throttling the load.
			var next time.Time
			var interval time.Duration
			if rate > 0 {
				interval = time.Duration(float64(time.Second) * float64(workers) / float64(rate))
				next = time.Now()
			}
			for time.Now().Before(deadline) {
				if rate > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				start := time.Now()
				if _, err := cl.Execute(1, op); err != nil {
					errs.Add(1, 0)
					continue
				}
				hist.Record(time.Since(start))
				ops.Add(1, uint64(payload))
			}
		}(w)
	}
	wg.Wait()

	return LatencyRow{
		Mode:         mode,
		PayloadBytes: payload,
		OfferedRate:  rate,
		OpsPerSec:    float64(ops.Ops()) / opts.PointSeconds,
		P50:          hist.Quantile(0.50),
		P99:          hist.Quantile(0.99),
		P999:         hist.Quantile(0.999),
		Errors:       errs.Ops(),
	}
}

// RenderLatency prints the latency figure.
func RenderLatency(w io.Writer, rows []LatencyRow) {
	fmt.Fprintln(w, "SMR command latency — ring-level batching on vs off")
	fmt.Fprintln(w, "(one ring, 3 replicas, sync-SSD logs; rate 0 = closed-loop saturation)")
	fmt.Fprintf(w, "%-11s %8s %8s %12s %10s %10s %10s %8s\n",
		"mode", "payload", "rate", "ops/s", "p50", "p99", "p999", "errors")
	for _, r := range rows {
		rateLabel := fmt.Sprint(r.OfferedRate)
		if r.OfferedRate == 0 {
			rateLabel = "sat"
		}
		fmt.Fprintf(w, "%-11s %7dB %8s %12.0f %10s %10s %10s %8d\n",
			r.Mode, r.PayloadBytes, rateLabel, r.OpsPerSec,
			r.P50.Round(10*time.Microsecond), r.P99.Round(10*time.Microsecond),
			r.P999.Round(10*time.Microsecond), r.Errors)
	}
}

// WriteLatencyJSON emits the machine-readable companion of the latency
// figure (BENCH_latency.json in CI).
func WriteLatencyJSON(path string, rows []LatencyRow) error {
	type jsonRow struct {
		Mode         LatencyMode `json:"mode"`
		PayloadBytes int         `json:"payload_bytes"`
		OfferedRate  int         `json:"offered_rate"`
		OpsPerSec    float64     `json:"ops_per_sec"`
		P50us        float64     `json:"p50_us"`
		P99us        float64     `json:"p99_us"`
		P999us       float64     `json:"p999_us"`
		Errors       uint64      `json:"errors"`
	}
	out := struct {
		Figure string    `json:"figure"`
		Rows   []jsonRow `json:"rows"`
	}{Figure: "latency"}
	for _, r := range rows {
		out.Rows = append(out.Rows, jsonRow{
			Mode:         r.Mode,
			PayloadBytes: r.PayloadBytes,
			OfferedRate:  r.OfferedRate,
			OpsPerSec:    r.OpsPerSec,
			P50us:        float64(r.P50) / float64(time.Microsecond),
			P99us:        float64(r.P99) / float64(time.Microsecond),
			P999us:       float64(r.P999) / float64(time.Microsecond),
			Errors:       r.Errors,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
