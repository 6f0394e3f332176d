package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mrp/internal/dlog"
	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/netsim"
	"mrp/internal/ringpaxos"
	"mrp/internal/smr"
	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/tcpnet"
	"mrp/internal/transport"
)

// Layer microbenchmarks: each calls one layer's public functions in a tight
// loop for o.microBudget and reports the mean time per call. They measure
// the layer alone — no replication above it, no load beside it — and are
// the numbers an optimisation of that layer moves first.

// perCall runs fn in batches until the budget is spent and returns the time
// taken and the number of calls.
func perCall(budget time.Duration, batch int, fn func()) (time.Duration, int) {
	start := time.Now()
	n := 0
	for time.Since(start) < budget {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	return time.Since(start), n
}

// microMetric is the mean time of one of n calls that took total together.
func microMetric(total time.Duration, n int, unit string) Metric {
	v := float64(total) / float64(n)
	if unit == "us" {
		v /= 1000
	}
	return Metric{Value: v, Unit: unit, N: n}
}

// phase2With1KB is the message the codec benchmarks encode: a Phase 2 with
// one 1 KB entry, the shape that carries every ordered write.
func phase2With1KB() *msg.Phase2 {
	return &msg.Phase2{Ring: 1, Ballot: 1, Instance: 42, Votes: 1,
		Value: msg.Value{Batch: []msg.Entry{{Proposer: 7, Seq: 9, Data: make([]byte, 1024)}}}}
}

func runMicro(o options, tp *tap, e env) map[string]Metric {
	out := map[string]Metric{}
	b := o.microBudget

	// msg: the wire codec.
	p2 := phase2With1KB()
	buf := make([]byte, 0, 64<<10)
	d, n := perCall(b, 64, func() { buf = msg.MarshalTo(buf[:0], p2) })
	out["msg.marshal_ns"] = microMetric(d, n, "ns")
	enc := msg.Marshal(p2)
	d, n = perCall(b, 64, func() { _, _ = msg.Unmarshal(enc) })
	out["msg.unmarshal_ns"] = microMetric(d, n, "ns")
	sixteen := make([]msg.Message, 16)
	for i := range sixteen {
		sixteen[i] = p2
	}
	d, n = perCall(b, 16, func() { buf = msg.AppendBatch(buf[:0], sixteen) })
	out["msg.batch_marshal_ns"] = microMetric(d, n, "ns")

	// netsim and tcpnet: one message there and back, and a one-way stream.
	sim := netsim.New()
	d, n = roundTrips(b, sim.Endpoint("micro-a"), sim.Endpoint("micro-b"))
	sim.Close()
	out["netsim.rtt_us"] = microMetric(d, n, "us")
	out["tcpnet.rtt_us"], out["tcpnet.stream_ns_per_msg"] = Metric{Unit: "us"}, Metric{Unit: "ns"}
	if ta, tb, err := tcpPair(); err == nil {
		d, n = roundTrips(b, ta, tb)
		out["tcpnet.rtt_us"] = microMetric(d, n, "us")
		d, n = stream(b, ta, tb)
		out["tcpnet.stream_ns_per_msg"] = microMetric(d, n, "ns")
		_ = ta.Close()
		_ = tb.Close()
	}

	// storage: the in-memory acceptor log, and the file-backed log that no
	// end-to-end workload can reach (ringpaxos.Config.Log is a *storage.Log).
	rec := storage.Record{Rnd: 1, VRnd: 1, Value: p2.Value}
	log := storage.NewLog(storage.InMemory)
	inst := msg.Instance(0)
	d, n = perCall(b, 64, func() {
		inst++
		_ = log.Put(inst, rec)
		if inst%4096 == 0 {
			log.Trim(inst)
		}
	})
	out["storage.log_put_ns"] = microMetric(d, n, "ns")
	out["storage.wal_append_us"] = walAppend(o, false)
	out["storage.wal_append_fsync_us"] = walAppend(o, true)

	out["ringpaxos.instance_us"] = ringInstance(b)
	out["multiring.merge_ns"] = mergeCost(b)
	out["smr.execute_rt_us"] = executeRoundTrip(b)

	// store and dlog: the state machines alone, fed the operations the tap
	// copied from this run's proposals — the single-node, no-replication
	// baseline. Each is 0 on the other service's workloads.
	out["store.sm_execute_ns"], out["dlog.sm_execute_ns"] = Metric{Unit: "ns"}, Metric{Unit: "ns"}
	switch e := e.(type) {
	case *kvEnv:
		if ops := tp.capturedOps(e.d.PartitionRing(0)); len(ops) > 0 {
			sm := store.NewSM(0, e.in.part)
			for _, en := range e.in.entries {
				if e.in.part.PartitionOf(en.Key) == 0 {
					sm.Data().Put(en.Key, en.Value)
				}
			}
			i := 0
			d, n = perCall(b, 64, func() { sm.Execute(ops[i%len(ops)]); i++ })
			out["store.sm_execute_ns"] = microMetric(d, n, "ns")
		}
	case *dlogEnv:
		if ops := tp.capturedOps(e.d.LogRing(0)); len(ops) > 0 {
			// A fresh state machine per pass keeps the log from growing
			// without bound.
			var sm *dlog.SM
			i := 0
			d, n = perCall(b, len(ops), func() {
				if i%len(ops) == 0 {
					sm = dlog.NewSM(dlog.SMConfig{})
				}
				sm.Execute(ops[i%len(ops)])
				i++
			})
			out["dlog.sm_execute_ns"] = microMetric(d, n, "ns")
		}
	}
	return out
}

func tcpPair() (a, b *tcpnet.Endpoint, err error) {
	if a, err = tcpnet.Listen("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	if b, err = tcpnet.Listen("127.0.0.1:0"); err != nil {
		_ = a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// watchdog returns a channel that closes a few seconds after the budget has
// run out, so that a message that never arrives cannot hang the run.
func watchdog(budget time.Duration) (expired <-chan struct{}, cancel func()) {
	ch := make(chan struct{})
	t := time.AfterFunc(budget+5*time.Second, func() { close(ch) })
	return ch, func() { t.Stop() }
}

// roundTrips bounces one small message between two endpoints.
func roundTrips(budget time.Duration, a, b transport.Endpoint) (time.Duration, int) {
	expired, cancel := watchdog(budget)
	defer cancel()
	done, exited := make(chan struct{}), make(chan struct{})
	defer func() { close(done); <-exited }()
	go func() {
		defer close(exited)
		for {
			select {
			case env, ok := <-b.Inbox():
				if !ok {
					return
				}
				_ = b.Send(a.Addr(), env.Msg)
			case <-done:
				return
			}
		}
	}()
	ping := &msg.Response{ClientID: 1, Seq: 1, Result: make([]byte, 16)}
	return perCall(budget, 1, func() {
		_ = a.Send(b.Addr(), ping)
		select {
		case <-a.Inbox():
		case <-expired:
		}
	})
}

// stream sends one-way bursts from a to b and times them to the last
// arrival: the per-message cost with write coalescing at work.
func stream(budget time.Duration, a, b transport.Endpoint) (time.Duration, int) {
	const burst = 1000
	m := &msg.Response{ClientID: 1, Seq: 1, Result: make([]byte, 100)}
	expired, cancel := watchdog(budget)
	defer cancel()
	d, n := perCall(budget, 1, func() {
		for i := 0; i < burst; i++ {
			_ = a.Send(b.Addr(), m)
		}
		for i := 0; i < burst; i++ {
			select {
			case <-b.Inbox():
			case <-expired:
				return
			}
		}
	})
	return d, n * burst
}

func walAppend(o options, fsync bool) Metric {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return Metric{Unit: "us"}
	}
	dir, err := os.MkdirTemp(o.scratch, "wal")
	if err != nil {
		return Metric{Unit: "us"}
	}
	defer os.RemoveAll(dir)
	wal, err := storage.OpenFileWAL(filepath.Join(dir, "acceptor.wal"), fsync)
	if err != nil {
		return Metric{Unit: "us"}
	}
	defer wal.Close()
	rec := storage.Record{Rnd: 1, VRnd: 1, Value: phase2With1KB().Value}
	inst := msg.Instance(0)
	batch := 16
	if fsync {
		batch = 1
	}
	d, n := perCall(o.microBudget, batch, func() {
		inst++
		_ = wal.Put(inst, rec)
		if inst%4096 == 0 {
			wal.Trim(inst)
		}
	})
	return microMetric(d, n, "us")
}

// ringOfThree starts three nodes that are proposer, acceptor and learner of
// ring 1 on a fresh simulated network.
func ringOfThree() (*netsim.Network, []*multiring.Node, []*ringpaxos.Process, []ringpaxos.Peer) {
	sim := netsim.New()
	peers := make([]ringpaxos.Peer, 3)
	for i := range peers {
		peers[i] = ringpaxos.Peer{
			ID:    msg.NodeID(i + 1),
			Addr:  transport.Addr(fmt.Sprintf("micro-n%d", i)),
			Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
		}
	}
	var nodes []*multiring.Node
	var procs []*ringpaxos.Process
	for _, p := range peers {
		node := multiring.NewNode(p.ID, sim.Endpoint(p.Addr))
		proc, err := node.Join(ringpaxos.Config{
			Ring: 1, Peers: peers, Coordinator: peers[0].ID, Log: storage.NewLog(storage.InMemory),
		})
		if err != nil {
			panic(err) // the configuration is a constant of this file
		}
		nodes = append(nodes, node)
		procs = append(procs, proc)
	}
	return sim, nodes, procs, peers
}

// ringInstance times Propose at the coordinator to its own Decisions
// stream, one instance at a time, with no replica above the ring.
func ringInstance(budget time.Duration) Metric {
	sim, nodes, procs, _ := ringOfThree()
	defer sim.Close()
	done := make(chan struct{})
	for _, p := range procs[1:] {
		go func(p *ringpaxos.Process) {
			for {
				select {
				case <-p.Decisions():
				case <-done:
					return
				}
			}
		}(p)
	}
	for _, n := range nodes {
		n.Start()
	}
	defer func() {
		close(done)
		for _, n := range nodes {
			n.Stop()
		}
	}()
	expired, cancel := watchdog(budget)
	defer cancel()
	payload := make([]byte, 100)
	one := func() {
		_ = procs[0].Propose(payload)
		select {
		case <-procs[0].Decisions():
		case <-expired:
		}
	}
	for i := 0; i < 16; i++ {
		one() // Phase 1 and first-use allocations
	}
	d, n := perCall(budget, 1, one)
	return microMetric(d, n, "us")
}

// filledSource is a DecisionSource whose stream was decided beforehand.
type filledSource struct {
	ring msg.RingID
	ch   chan ringpaxos.Decided
}

func (s *filledSource) Ring() msg.RingID                    { return s.ring }
func (s *filledSource) Decisions() <-chan ringpaxos.Decided { return s.ch }

// mergeCost times the deterministic merge alone: a learner over three
// rings whose decisions are already waiting.
func mergeCost(budget time.Duration) Metric {
	const perRing = 4096
	entry := []msg.Entry{{Proposer: 1, Seq: 1, Data: []byte("op")}}
	var total time.Duration
	n := 0
	for total < budget {
		srcs := make([]multiring.DecisionSource, 3)
		for r := range srcs {
			s := &filledSource{ring: msg.RingID(r + 1), ch: make(chan ringpaxos.Decided, perRing)}
			for i := 1; i <= perRing; i++ {
				s.ch <- ringpaxos.Decided{Ring: s.ring, Instance: msg.Instance(i), Value: msg.Value{Batch: entry}}
			}
			srcs[r] = s
		}
		l := multiring.NewLearner(1, srcs...)
		start := time.Now()
		l.Start()
		for i := 0; i < 3*perRing; i++ {
			<-l.Deliveries()
		}
		total += time.Since(start)
		n += 3 * perRing
		l.Stop()
	}
	return microMetric(total, n, "ns")
}

// echoSM answers every command with its own bytes.
type echoSM struct{}

func (echoSM) Execute(op []byte) []byte { return op }
func (echoSM) Snapshot() []byte         { return nil }
func (echoSM) Restore([]byte)           {}

// executeRoundTrip times one client command through one ring and an echo
// state machine: the cost of ordering and replying with no application.
func executeRoundTrip(budget time.Duration) Metric {
	sim, nodes, procs, peers := ringOfThree()
	defer sim.Close()
	var stops []func()
	var addrs []transport.Addr
	for i, node := range nodes {
		learner := multiring.NewLearner(1, procs[i])
		rep := smr.NewReplica(smr.ReplicaConfig{
			Node: node, Learner: learner, SM: echoSM{},
			Ckpt: storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk)),
		})
		node.Service(rep.HandleService)
		node.Start()
		learner.Start()
		rep.Start()
		stops = append(stops, rep.Stop, learner.Stop, node.Stop)
		addrs = append(addrs, peers[i].Addr)
	}
	cl := smr.NewClient(smr.ClientConfig{
		ID: 77, Endpoint: sim.Endpoint("micro-client"),
		Proposers: map[msg.RingID][]transport.Addr{1: addrs},
	})
	defer func() {
		cl.Close()
		for _, stop := range stops {
			stop()
		}
	}()
	op := make([]byte, 100)
	for i := 0; i < 16; i++ {
		_, _ = cl.Execute(1, op)
	}
	d, n := perCall(budget, 1, func() { _, _ = cl.Execute(1, op) })
	return microMetric(d, n, "us")
}
