package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/netsim"
	"mrp/internal/ringpaxos"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// skipMergeThroughput drives one busy ring and one idle ring through a
// two-ring learner and returns the delivered message rate. With rate
// leveling off, the deterministic merge blocks on the idle ring and the
// rate collapses — the negative control for the skip mechanism.
func skipMergeThroughput(opts Options, skips bool) float64 {
	net := netsim.New(netsim.WithUniformLatency(50 * time.Microsecond))
	defer net.Close()

	const nodes = 3
	rings := []msg.RingID{1, 2}
	peersFor := func() []ringpaxos.Peer {
		peers := make([]ringpaxos.Peer, nodes)
		for i := range peers {
			peers[i] = ringpaxos.Peer{
				ID:    msg.NodeID(i + 1),
				Addr:  transport.Addr(fmt.Sprintf("merge-n%d", i)),
				Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
			}
		}
		return peers
	}
	var nodesList []*multiring.Node
	for i := 0; i < nodes; i++ {
		node := multiring.NewNode(msg.NodeID(i+1), net.Endpoint(transport.Addr(fmt.Sprintf("merge-n%d", i))))
		for _, r := range rings {
			cfg := ringpaxos.Config{
				Ring:         r,
				Peers:        peersFor(),
				Coordinator:  1,
				Log:          storage.NewLog(storage.InMemory),
				BatchDelay:   time.Millisecond,
				RetryTimeout: 200 * time.Millisecond,
			}
			if skips {
				cfg.SkipInterval = 5 * time.Millisecond
				cfg.SkipRate = 2000
			}
			if _, err := node.Join(cfg); err != nil {
				panic(err)
			}
		}
		nodesList = append(nodesList, node)
	}
	p1, _ := nodesList[1].Process(1)
	p2, _ := nodesList[1].Process(2)
	learner := multiring.NewLearner(1, p1, p2)
	var delivered atomic.Int64
	learner.SetDeliver(func(d multiring.Delivery) {
		if !d.Skip {
			delivered.Add(1)
		}
	})
	for _, n := range nodesList {
		n.Start()
	}
	defer func() {
		for _, n := range nodesList {
			n.Stop()
		}
	}()
	defer learner.Stop()

	deadline := time.Now().Add(opts.point())
	payload := make([]byte, 128)
	for time.Now().Before(deadline) {
		// Only ring 1 carries traffic; ring 2 stays idle.
		_ = nodesList[0].Multicast(1, payload)
		time.Sleep(200 * time.Microsecond)
	}
	time.Sleep(50 * time.Millisecond)
	return float64(delivered.Load()) / opts.PointSeconds
}
