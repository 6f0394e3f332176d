// Quickstart: atomic multicast with two groups and a deterministic-merge
// learner — the smallest end-to-end use of the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"mrp"
)

func main() {
	// A simulated LAN; swap in mrp.ListenTCP endpoints for real sockets.
	net := mrp.NewSimNetwork(mrp.WithUniformLatency(50 * time.Microsecond))
	defer net.Close()

	// Three nodes, all proposer+acceptor+learner in both groups.
	const nodes = 3
	peers := make([]mrp.Peer, nodes)
	for i := range peers {
		peers[i] = mrp.Peer{
			ID:    mrp.NodeID(i + 1),
			Addr:  mrp.Addr(fmt.Sprintf("node-%d", i)),
			Roles: mrp.RoleProposer | mrp.RoleAcceptor | mrp.RoleLearner,
		}
	}
	var cluster []*mrp.Node
	for i := 0; i < nodes; i++ {
		node := mrp.NewNode(peers[i].ID, net.Endpoint(peers[i].Addr))
		for _, group := range []mrp.GroupID{1, 2} {
			if _, err := node.Join(mrp.RingConfig{
				Ring:        group,
				Peers:       peers,
				Coordinator: peers[0].ID,
				Log:         mrp.NewMemLog(),
				// Rate leveling keeps an idle group from stalling the merge.
				SkipInterval: 5 * time.Millisecond,
				SkipRate:     1000,
			}); err != nil {
				panic(err)
			}
		}
		cluster = append(cluster, node)
	}

	// A learner at node 2 subscribed to both groups: it delivers the
	// deterministic merge, identical at every subscriber. It is built
	// before the node starts, so it sees every decision.
	p1, _ := cluster[2].Process(1)
	p2, _ := cluster[2].Process(2)
	learner := mrp.NewLearner(1, p1, p2)
	for _, node := range cluster {
		node.Start()
		defer node.Stop()
	}
	learner.Start()
	defer learner.Stop()

	// Multicast from different nodes to different groups.
	for k := 0; k < 3; k++ {
		must(cluster[k%nodes].Multicast(1, []byte(fmt.Sprintf("group1-msg%d", k))))
		must(cluster[(k+1)%nodes].Multicast(2, []byte(fmt.Sprintf("group2-msg%d", k))))
	}

	fmt.Println("deterministic merge at node 2:")
	seen := 0
	for seen < 6 {
		d := <-learner.Deliveries()
		if d.Skip {
			continue // rate-leveling skip: advances the merge, carries no data
		}
		fmt.Printf("  group %d, instance %d: %s\n", d.Ring, d.Instance, d.Entry.Data)
		seen++
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
