// Package cluster is the one place a service replica is assembled,
// started, stopped, healed and recovered. An MRP-Store partition replica
// and a dLog server are the same thing underneath: an SMR replica whose
// Multi-Ring Paxos node subscribes to a set of rings. They differ only in
// their state machine, in which rings they subscribe to, and in where
// their acceptor logs live; everything else comes from here.
package cluster

import (
	"sync/atomic"
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/netsim"
	"mrp/internal/recovery"
	"mrp/internal/ringpaxos"
	"mrp/internal/smr"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// mergeM is the deterministic merge constant M: consensus instances taken
// per ring per round-robin turn (the paper's deployments use 1).
const mergeM = 1

// Config is what every member of a deployment shares: where endpoints come
// from and how every ring is tuned. The services copy it from their own
// deploy configurations.
type Config struct {
	// Net is the simulated network; EndpointFor defaults to Net.Endpoint.
	Net *netsim.Network
	// EndpointFor creates the endpoint for an address.
	EndpointFor func(transport.Addr) (transport.Endpoint, error)
	// DiskScale scales the services' disk service times (default 1).
	DiskScale float64

	// Ring tuning, applied to every ring.
	BatchMaxBytes int
	BatchDelay    time.Duration // default 1 ms; bounds a proposal's wait for its batch (ringpaxos.Config.BatchDelay)
	SkipInterval  time.Duration
	SkipRate      int
	RetryTimeout  time.Duration // default 100 ms

	// Replica settings (see smr.ReplicaConfig).
	CheckpointEvery time.Duration
}

// WithDefaults returns c with the defaults filled in.
func (c Config) WithDefaults() Config {
	if c.EndpointFor == nil && c.Net != nil {
		net := c.Net
		c.EndpointFor = func(a transport.Addr) (transport.Endpoint, error) {
			return net.Endpoint(a), nil
		}
	}
	if c.DiskScale <= 0 {
		c.DiskScale = 1
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 100 * time.Millisecond
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = time.Millisecond
	}
	return c
}

// Ring is one ring a member subscribes to.
type Ring struct {
	ID msg.RingID
	// Peers lists the ring's members in ring order; the first is the
	// initial coordinator.
	Peers []ringpaxos.Peer
	// Log is the member's acceptor log for the ring.
	Log *storage.Log
}

// Spec describes one member: its identity, rings and state machine, and
// where a recovered member resumes.
type Spec struct {
	ID    msg.NodeID
	Rings []Ring
	SM    smr.StateMachine
	Ckpt  *storage.CheckpointStore
	// Starts maps each ring to the instance delivery resumes at (nil: the
	// first instance); Install is a recovered checkpoint, or nil.
	Starts  map[msg.RingID]msg.Instance
	Install *storage.Checkpoint
	// Service, when set, sees every non-ring message before the replica
	// does and reports whether it consumed it. It runs on the goroutine
	// that received the message, possibly concurrently with itself, and
	// must not block.
	Service func(transport.Envelope) bool
	// OnStop runs first when the member stops, to release anything that
	// could hold a ring loop inside the replica's apply.
	OnStop func()
}

// Member is one running replica: its node, learner and SMR replica, the
// checkpoint store that outlives a crash, and one handler per ring for
// ring-scoped messages the ring process does not consume (each starts out
// answering trim queries).
type Member struct {
	Node    *multiring.Node
	Learner *multiring.Learner
	Replica *smr.Replica
	Ckpt    *storage.CheckpointStore
	Aux     map[msg.RingID]*transport.HandlerMux

	onStop  func()
	stopped atomic.Bool
}

// Stopped reports whether the member has been stopped (crash injection or
// teardown). It is safe to call from any goroutine.
func (m *Member) Stopped() bool { return m.stopped.Load() }

// Stop stops the member once and reports whether this call stopped it.
func (m *Member) Stop() bool {
	if !m.stopped.CompareAndSwap(false, true) {
		return false
	}
	if m.onStop != nil {
		m.onStop()
	}
	m.Replica.Stop()
	m.Learner.Stop()
	m.Node.Stop()
	return true
}

// StartAll binds an endpoint for every address, then assembles and starts
// one member per address from spec(i, endpoint). No member starts before
// every endpoint exists, so a coordinator's first Phase 1 message waits in
// its successor's inbox instead of being dropped and retried. On error,
// the members started so far are stopped and every endpoint is closed.
func (c Config) StartAll(addrs []transport.Addr, spec func(i int, ep transport.Endpoint) Spec) ([]*Member, error) {
	eps := make([]transport.Endpoint, 0, len(addrs))
	closeFrom := func(i int) {
		for _, ep := range eps[i:] {
			_ = ep.Close()
		}
	}
	for _, a := range addrs {
		ep, err := c.EndpointFor(a)
		if err != nil {
			closeFrom(0)
			return nil, err
		}
		eps = append(eps, ep)
	}
	ms := make([]*Member, 0, len(eps))
	for i, ep := range eps {
		m, err := c.start(spec(i, ep), ep)
		if err != nil {
			for _, m := range ms {
				m.Stop()
			}
			closeFrom(i + 1)
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// start assembles one member on its endpoint: the node joins every ring,
// the learner merges them, the replica runs the state machine, and all
// three start. If a ring cannot be joined or the recovered checkpoint does
// not install, nothing starts and the endpoint is closed.
func (c Config) start(s Spec, ep transport.Endpoint) (*Member, error) {
	node := multiring.NewNode(s.ID, ep)
	fail := func(err error) (*Member, error) {
		if s.OnStop != nil {
			s.OnStop()
		}
		node.Stop()
		return nil, err
	}
	m := &Member{Node: node, Ckpt: s.Ckpt, Aux: make(map[msg.RingID]*transport.HandlerMux, len(s.Rings)), onStop: s.OnStop}
	procs := make([]multiring.DecisionSource, 0, len(s.Rings))
	for _, r := range s.Rings {
		aux := &transport.HandlerMux{}
		m.Aux[r.ID] = aux
		proc, err := node.Join(ringpaxos.Config{
			Ring:          r.ID,
			Peers:         r.Peers,
			Coordinator:   r.Peers[0].ID,
			Log:           r.Log,
			BatchMaxBytes: c.BatchMaxBytes,
			BatchDelay:    c.BatchDelay,
			SkipInterval:  c.SkipInterval,
			SkipRate:      c.SkipRate,
			RetryTimeout:  c.RetryTimeout,
			StartInstance: s.Starts[r.ID],
			Aux:           aux.Handle,
		})
		if err != nil {
			return fail(err)
		}
		procs = append(procs, proc)
	}
	m.Learner = multiring.NewLearner(mergeM, procs...)
	rep := smr.NewReplica(smr.ReplicaConfig{
		Node:            node,
		Learner:         m.Learner,
		SM:              s.SM,
		Ckpt:            s.Ckpt,
		CheckpointEvery: c.CheckpointEvery,
	})
	m.Replica = rep
	if s.Install != nil {
		if err := rep.InstallCheckpoint(*s.Install); err != nil {
			return fail(err)
		}
	}
	for _, aux := range m.Aux {
		aux.Set(rep.HandleTrimQuery)
	}
	node.Service(func(env transport.Envelope) {
		if s.Service == nil || !s.Service(env) {
			rep.HandleService(env)
		}
	})
	node.Start()
	m.Learner.Start()
	rep.Start()
	return m, nil
}

// Recover runs the recovery conversation of Section 5.2 for the member at
// addr: on a transient "<addr>-recovery" endpoint it collects checkpoint
// identifiers from a quorum of peers and fetches the freshest checkpoint
// unless local already holds it, within recovery.Recover's default
// deadline. It returns the instance each ring resumes at and the
// checkpoint to install (nil when none exists anywhere). The endpoint is
// closed on every path.
func (c Config) Recover(addr transport.Addr, peers []transport.Addr, local *storage.CheckpointStore) (map[msg.RingID]msg.Instance, *storage.Checkpoint, error) {
	ep, err := c.EndpointFor(addr + "-recovery")
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = ep.Close() }()
	res, err := recovery.Recover(recovery.RecoverConfig{Endpoint: ep, Peers: peers, Local: local})
	if err != nil {
		return nil, nil, err
	}
	var install *storage.Checkpoint
	if res.Found {
		install = &res.Checkpoint
	}
	return recovery.StartInstances(res.Checkpoint.Tuple), install, nil
}

// Heal marks node id down (or back up) on every ring of every running
// member other than id itself, as the coordination service would: rings
// heal around a crashed member and take a recovered one back.
func Heal(members []*Member, id msg.NodeID, down bool) {
	for _, m := range members {
		if m.Stopped() || m.Node.ID() == id {
			continue
		}
		for _, ring := range m.Node.Rings() {
			if proc, ok := m.Node.Process(ring); ok {
				proc.SetPeerDown(id, down)
			}
		}
	}
}
