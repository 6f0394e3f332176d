// Package multiring implements Multi-Ring Paxos, the atomic multicast
// protocol of the paper (Section 4): a collection of coordinated Ring
// Paxos instances, one per multicast group, merged deterministically at
// the learners.
//
// A process subscribes to a group by joining the corresponding ring as a
// learner ("inverted" group addressing, Section 3: servers subscribe to any
// groups they are interested in). Messages multicast to a group are
// proposed to that group's ring; learners subscribed to several groups
// deliver messages from their rings in round-robin order, M consensus
// instances at a time, which yields the acyclic global order required by
// atomic multicast. Rate leveling (Δ, λ — implemented in the ring layer as
// skip instances) keeps lightly loaded rings from stalling the merge.
package multiring

import (
	"fmt"
	"sort"
	"sync"

	"mrp/internal/msg"
	"mrp/internal/ringpaxos"
	"mrp/internal/transport"
)

// Node is one process participating in Multi-Ring Paxos: a single network
// endpoint demultiplexed across the rings the process is a member of, plus
// an optional service handler for non-ring messages (client responses,
// checkpoint RPCs).
type Node struct {
	id     msg.NodeID
	ep     transport.Endpoint
	router *transport.Router

	mu          sync.Mutex
	procs       map[msg.RingID]*ringpaxos.Process
	peersByRing map[msg.RingID][]msg.NodeID
	started     bool
	stopped     bool
}

// NewNode creates a node over the endpoint.
func NewNode(id msg.NodeID, ep transport.Endpoint) *Node {
	return &Node{
		id:          id,
		ep:          ep,
		router:      transport.NewRouter(ep),
		procs:       make(map[msg.RingID]*ringpaxos.Process),
		peersByRing: make(map[msg.RingID][]msg.NodeID),
	}
}

// ID returns the node's identifier.
func (n *Node) ID() msg.NodeID { return n.id }

// Addr returns the node's network address.
func (n *Node) Addr() transport.Addr { return n.ep.Addr() }

// Endpoint returns the node's transport endpoint.
func (n *Node) Endpoint() transport.Endpoint { return n.ep }

// Join makes the node a member of a ring with the given configuration —
// the paper's inverted group addressing (Section 3: processes subscribe to
// any groups they are interested in). cfg.Self is forced to the node's ID.
// A node's rings are fixed when it starts: Join fails after Start or Stop.
// Pass the returned processes to NewLearner to merge the rings.
func (n *Node) Join(cfg ringpaxos.Config) (*ringpaxos.Process, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.stopped {
		return nil, fmt.Errorf("multiring: node %d joins rings only before Start", n.id)
	}
	if _, dup := n.procs[cfg.Ring]; dup {
		return nil, fmt.Errorf("multiring: node %d already joined ring %d", n.id, cfg.Ring)
	}
	cfg.Self = n.id
	proc, err := ringpaxos.New(cfg, n.ep)
	if err != nil {
		return nil, err
	}
	n.procs[cfg.Ring] = proc
	ids := make([]msg.NodeID, len(cfg.Peers))
	for i, peer := range cfg.Peers {
		ids[i] = peer.ID
	}
	n.peersByRing[cfg.Ring] = ids
	n.router.Ring(cfg.Ring, proc.In())
	return proc, nil
}

// Service registers the handler for non-ring messages. It runs on the
// goroutine that received the message, possibly concurrently with itself
// for different senders, and must not block. Must be called before Start.
func (n *Node) Service(fn func(transport.Envelope)) {
	n.router.Service(fn)
}

// Process returns the node's process for a ring, if joined.
func (n *Node) Process(ring msg.RingID) (*ringpaxos.Process, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.procs[ring]
	return p, ok
}

// Rings returns the identifiers of all joined rings in ascending order.
func (n *Node) Rings() []msg.RingID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]msg.RingID, 0, len(n.procs))
	for r := range n.procs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Multicast proposes a payload to the given group (ring). The node must be
// a proposer member of that ring.
func (n *Node) Multicast(group msg.RingID, payload []byte) error {
	p, ok := n.Process(group)
	if !ok {
		return fmt.Errorf("multiring: node %d is not a member of group %d", n.id, group)
	}
	return p.Propose(payload)
}

// Start launches all ring processes, then routes the endpoint's messages,
// beginning with those that arrived before Start. The processes run
// first, so routing the early messages never waits on a full, unread
// ring input.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	procs := make([]*ringpaxos.Process, 0, len(n.procs))
	for _, p := range n.procs {
		procs = append(procs, p)
	}
	n.mu.Unlock()
	for _, p := range procs {
		p.Start()
	}
	n.router.Start()
}

// Stop terminates all ring processes and the router, then closes the
// endpoint (simulating a process crash when injected mid-experiment).
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped || !n.started {
		n.stopped = true
		n.mu.Unlock()
		_ = n.ep.Close()
		return
	}
	n.stopped = true
	procs := make([]*ringpaxos.Process, 0, len(n.procs))
	for _, p := range n.procs {
		procs = append(procs, p)
	}
	n.mu.Unlock()
	for _, p := range procs {
		p.Stop()
	}
	n.router.Stop()
	_ = n.ep.Close()
}
