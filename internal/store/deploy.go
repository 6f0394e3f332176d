package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mrp/internal/cluster"
	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/recovery"
	"mrp/internal/ringpaxos"
	"mrp/internal/storage"
	"mrp/internal/transport"
	"mrp/internal/txn"
)

// DeployConfig describes an MRP-Store deployment: l partitions, each
// replicated over its own ring, optionally coordinated by a global ring
// every replica subscribes to (the two configurations compared in
// Figure 4: "MRP-Store" vs "MRP-Store (indep. rings)").
type DeployConfig struct {
	// Net is the simulated network to deploy on. Leave nil when providing
	// EndpointFor (e.g. real TCP deployments).
	Net *netsim.Network
	// EndpointFor creates the endpoint for a replica address; defaults to
	// Net.Endpoint. Supplying a tcpnet-backed factory runs the exact same
	// deployment over real sockets.
	EndpointFor func(transport.Addr) (transport.Endpoint, error)
	// Partitions is the number of partitions l.
	Partitions int
	// Replicas is the replication factor per partition (default 3).
	Replicas int
	// GlobalRing, when true, adds a ring subscribed by all replicas that
	// orders multi-partition commands relative to everything else.
	GlobalRing bool
	// Partitioner maps keys to partitions (default: hash).
	Partitioner Partitioner
	// StorageMode is the acceptors' stable storage mode.
	StorageMode storage.Mode
	// DiskScale scales disk service times (see storage.DiskModel.Scale).
	DiskScale float64
	// AddrFor names replica endpoints; default "store-p<p>-r<r>". Use
	// region-prefixed names ("us-west-2/...") for WAN deployments.
	//
	// EndpointFor is also asked for auxiliary endpoints under symbolic
	// names outside AddrFor's scheme ("store-client-<n>" for NewClient,
	// "<replica>-recovery" for recovery conversations); real-socket
	// factories should map names that are not host:port pairs to
	// ephemeral listeners.
	AddrFor func(partition, replica int) transport.Addr

	// Ring tuning (applied to every ring). BatchDelay bounds how long a
	// proposal waits for its batch; with a sync-mode log the coordinator
	// cuts batches when its log is idle (ringpaxos.Config.BatchDelay).
	BatchMaxBytes int
	BatchDelay    time.Duration
	SkipInterval  time.Duration // Δ
	SkipRate      int           // λ
	RetryTimeout  time.Duration

	// CheckpointEvery enables periodic replica checkpoints.
	CheckpointEvery time.Duration
	// TrimInterval enables trim coordination per ring when > 0.
	TrimInterval time.Duration

	// Lease configures ring leases for consensus-free local reads (see
	// LeasePolicy): the zero value enables them with defaults, so every
	// deployment serves lease reads unless Lease.Disabled is set.
	Lease LeasePolicy
}

// ReplicaHandle bundles everything one replica node runs: the cluster
// member (node, learner, SMR replica, checkpoint store) and the store's own
// parts.
type ReplicaHandle struct {
	*cluster.Member
	Partition int
	Index     int
	SM        *SM
	Logs      map[msg.RingID]*storage.Log
	Disk      *storage.Disk
	// Ex exchanges cross-partition transaction votes with the replicas of
	// other participant partitions (internal/txn). Closed before the
	// replica stops so an in-flight exchange cannot deadlock teardown.
	Ex *txn.Exchanger

	renewer *leaseRenewer // nil unless this replica holds its partition's lease
}

// partMeta is one partition's live topology entry: the ring ordering its
// commands, its replica addresses, and whether its replicas subscribe to
// the global ring (partitions added by a live split do not).
type partMeta struct {
	ring     msg.RingID
	addrs    []transport.Addr
	onGlobal bool
	// retired marks a partition index merged away by an online merge: its
	// replicas are stopped, its ring torn down and the ring ID recycled.
	// The entry stays as a tombstone because partition indexes are never
	// renumbered; an index at the top of the space can be reused by a
	// later split (RangePartitioner.N shrinks past it).
	retired bool
	// birth, for partitions appended by a live split, records the state
	// the partition's replicas started from. A recovering replica without
	// a usable checkpoint restarts from this state and replays its ring
	// from the first instance; starting from any other state would make
	// the replayed opMigrate/opActivatePart commands diverge.
	birth *splitBirth
}

// splitBirth is the deterministic initial state of a split partition's
// replicas: warming, at the split's epoch, under the post-split mapping.
type splitBirth struct {
	epoch       uint64
	partitioner Partitioner
}

// Deployment is a running MRP-Store cluster. The partition topology is
// dynamic: an online split (internal/rebalance) appends a partition with
// fresh replicas on a new ring and flips the committed partitioner and
// epoch once the moved range has been migrated.
//
// # Versioned-schema protocol
//
// The partitioning schema is replicated state: every replica carries it in
// its snapshots, and the Deployment keeps the committed partitioner, epoch
// and partition table that wire its replicas and route its clients. Every
// client command carries the epoch it was routed under. The protocol
// between the rebalance coordinator, replicas, and clients:
//
//  1. Exactly one writer (the rebalance coordinator) advances the schema;
//     under auto-sharding it is the one driven by the controller that
//     holds Lead. It records its plan here (RecordPlan) before the first
//     ordered command, and AdoptReconfig installs epoch e only over epoch
//     e-1, so a concurrent publisher is detected instead of silently
//     overwritten.
//  2. Replicas learn epoch changes only through totally-ordered commands
//     on their rings (opPrepareReconfig / opCommitReconfig /
//     opAbortReconfig) — so all replicas of a partition switch mappings
//     at the same logical point in the delivery order.
//  3. Clients cache a routing view of the deployment and refresh it before
//     an attempt whenever the deployment's epoch is ahead of it; a replica
//     answering statusWrongEpoch is the typed redirect telling a stale
//     client to refresh and re-route before retrying.
//
// Partition indexes are stable across epochs: splits only append indexes
// and merges only retire them — neither renumbers a surviving partition
// (see RangePartitioner.Split and RangePartitioner.Merge). A retired
// index keeps its slot in the partition table as a tombstone until the
// index space shrinks past it.
type Deployment struct {
	cfg      DeployConfig
	cl       cluster.Config
	Replicas [][]*ReplicaHandle // [partition][replica]
	trims    []*recovery.TrimCoordinator
	nextID   atomic.Uint64

	// mu guards replacement of Replicas entries (RecoverReplica), growth
	// of the partition set (AddPartition/AdoptReconfig/RetirePartition),
	// the plan record and the controller lease, and the topology fields
	// below against concurrent inspection while running.
	mu          sync.RWMutex
	epoch       uint64
	partitioner Partitioner // committed mapping (epoch's partitioner)
	// viewEpoch is the highest epoch ever adopted — a watermark for the
	// epochs handed to client views. An aborted reconfiguration reverts
	// the committed epoch (the aborted number is reused by the next
	// plan), but client refreshes rightly refuse to install an older
	// epoch than they have seen, so views keep carrying the watermark.
	viewEpoch uint64
	parts     []partMeta // includes not-yet-committed split partitions
	nextRing  msg.RingID // ring allocator for split partitions
	// globalPeers is the global ring's membership, fixed at deploy time
	// like every ring's: only seed partitions sit on it, and a split
	// partition never joins it.
	globalPeers []ringpaxos.Peer
	// freeRings holds ring IDs recycled by ring retirement; AddPartition
	// reuses them (most recently retired first) before minting new IDs.
	freeRings []msg.RingID
	// plan is the reconfiguration in flight (RecordPlan), nil when none.
	plan *Plan
	// leader holds the auto-sharding controller lease (Lead), nil when
	// free.
	leader any

	// renewing counts running lease renewers; Stop waits for them.
	renewing sync.WaitGroup
}

// PartitionRing returns the ring (= multicast group) of a partition.
func (d *Deployment) PartitionRing(p int) msg.RingID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if p < len(d.parts) {
		return d.parts[p].ring
	}
	return 0
}

// GlobalRingID returns the global ring's ID (0 when disabled). It is fixed
// at deploy time, so reading it takes no lock.
func (d *Deployment) GlobalRingID() msg.RingID {
	if !d.cfg.GlobalRing {
		return 0
	}
	return msg.RingID(d.cfg.Partitions + 1)
}

// Partitioner returns the deployment's committed partitioning scheme.
func (d *Deployment) Partitioner() Partitioner {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.partitioner
}

// Epoch returns the committed schema epoch.
func (d *Deployment) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// Partitions returns the committed partition count.
func (d *Deployment) Partitions() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.partitioner.N()
}

// PartitionOnGlobal reports whether a partition's replicas subscribe to
// the global ring (split partitions do not; commands that must reach them
// are ordered through their own ring instead).
func (d *Deployment) PartitionOnGlobal(p int) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return p < len(d.parts) && d.parts[p].onGlobal
}

func (c *DeployConfig) withDefaults() {
	if c.Partitions <= 0 {
		c.Partitions = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Partitioner == nil {
		c.Partitioner = NewHashPartitioner(c.Partitions)
	}
	if c.AddrFor == nil {
		c.AddrFor = func(p, r int) transport.Addr {
			return transport.Addr(fmt.Sprintf("store-p%d-r%d", p, r))
		}
	}
	c.Lease = c.Lease.withDefaults()
}

// clusterConfig is the part of the configuration every replica shares,
// with the shared defaults applied.
func (c *DeployConfig) clusterConfig() cluster.Config {
	return cluster.Config{
		Net:             c.Net,
		EndpointFor:     c.EndpointFor,
		DiskScale:       c.DiskScale,
		BatchMaxBytes:   c.BatchMaxBytes,
		BatchDelay:      c.BatchDelay,
		SkipInterval:    c.SkipInterval,
		SkipRate:        c.SkipRate,
		RetryTimeout:    c.RetryTimeout,
		CheckpointEvery: c.CheckpointEvery,
	}.WithDefaults()
}

// nodeIDFor gives every replica a stable, unique node ID.
func nodeIDFor(p, r int) msg.NodeID { return msg.NodeID(p*100 + r + 1) }

// Deploy builds and starts an MRP-Store cluster.
func Deploy(cfg DeployConfig) (*Deployment, error) {
	cfg.withDefaults()
	d := &Deployment{cfg: cfg, cl: cfg.clusterConfig(), epoch: 1, viewEpoch: 1, partitioner: cfg.Partitioner}
	for p := 0; p < cfg.Partitions; p++ {
		var addrs []transport.Addr
		for r := 0; r < cfg.Replicas; r++ {
			addrs = append(addrs, cfg.AddrFor(p, r))
		}
		d.parts = append(d.parts, partMeta{
			ring:     msg.RingID(p + 1),
			addrs:    addrs,
			onGlobal: cfg.GlobalRing,
		})
		if cfg.GlobalRing {
			// Partition-major, so every replica agrees on the ring order.
			d.globalPeers = append(d.globalPeers, ringPeers(p, addrs, true)...)
		}
	}
	// Ring IDs 1..Partitions are the partition rings and Partitions+1 the
	// global ring; rings for split partitions are allocated after those.
	d.nextRing = msg.RingID(cfg.Partitions + 2)

	var plans []replicaPlan
	for p := 0; p < cfg.Partitions; p++ {
		members := d.memberships(p)
		for r := 0; r < cfg.Replicas; r++ {
			plans = append(plans, replicaPlan{p: p, r: r, members: members})
		}
	}
	hs, err := d.startReplicas(plans)
	if err != nil {
		return nil, err
	}
	d.Replicas = make([][]*ReplicaHandle, cfg.Partitions)
	for _, h := range hs {
		d.Replicas[h.Partition] = append(d.Replicas[h.Partition], h)
	}

	if cfg.TrimInterval > 0 {
		d.startTrimming()
	}
	return d, nil
}

// replicaPlan is what assembling one replica needs beyond the deployment
// config: its slot, the rings it subscribes to (see memberships),
// and where it starts. birth, when non-nil, marks a replica of a partition
// created by a live split: its state machine starts from the split's
// deterministic initial state. starts and install are the recovered ring
// frontier and checkpoint of a replica rebuilt after a crash.
type replicaPlan struct {
	p, r    int
	members []cluster.Ring
	birth   *splitBirth
	starts  map[msg.RingID]msg.Instance
	install *storage.Checkpoint
}

// startReplicas starts one replica per plan through the shared cluster
// path, which binds every plan's endpoint before any replica starts. A
// lease holder's renewer starts once every replica runs.
func (d *Deployment) startReplicas(plans []replicaPlan) ([]*ReplicaHandle, error) {
	addrs := make([]transport.Addr, len(plans))
	for i, pl := range plans {
		addrs[i] = d.cfg.AddrFor(pl.p, pl.r)
	}
	hs := make([]*ReplicaHandle, len(plans))
	ms, err := d.cl.StartAll(addrs, func(i int, ep transport.Endpoint) cluster.Spec {
		var spec cluster.Spec
		hs[i], spec = d.replicaSpec(plans[i], ep)
		return spec
	})
	if err != nil {
		return nil, err
	}
	for i, m := range ms {
		hs[i].Member = m
		if hs[i].renewer != nil {
			hs[i].renewer.start(m)
		}
	}
	return hs, nil
}

// replicaSpec prepares the store's parts of one replica on its endpoint:
// the stable storage a crash leaves behind (disk, checkpoints, acceptor
// logs), the state machine, the transaction vote exchanger and, on a lease
// holder, the lease renewer.
func (d *Deployment) replicaSpec(pl replicaPlan, ep transport.Endpoint) (*ReplicaHandle, cluster.Spec) {
	h := &ReplicaHandle{Partition: pl.p, Index: pl.r}
	var ckpt *storage.CheckpointStore
	if old := d.ReplicaAt(pl.p, pl.r); old != nil {
		// Stable storage survives a crash-recover cycle.
		h.Disk, h.Logs, ckpt = old.Disk, old.Logs, old.Ckpt
	} else {
		model := d.cfg.StorageMode.DiskFor().Scale(d.cl.DiskScale)
		h.Disk, h.Logs = storage.NewDisk(model), make(map[msg.RingID]*storage.Log)
		ckpt = storage.NewCheckpointStore(storage.NewDisk(model))
	}
	rings := append([]cluster.Ring(nil), pl.members...)
	for i, m := range rings {
		if _, ok := h.Logs[m.ID]; !ok {
			h.Logs[m.ID] = storage.NewLogOnDisk(d.cfg.StorageMode, h.Disk)
		}
		rings[i].Log = h.Logs[m.ID]
	}
	if pl.birth != nil {
		h.SM = NewSMAt(pl.p, pl.birth.partitioner, pl.birth.epoch, true)
	} else {
		h.SM = NewSM(pl.p, d.cfg.Partitioner)
	}
	// Cross-partition transaction votes ride the service plane alongside
	// the replica's checkpoint RPCs; both handlers are non-blocking.
	ex := txn.NewExchanger(txn.ExchangerConfig{
		Self:    uint16(pl.p),
		Send:    func(to transport.Addr, m *msg.TxnVote) error { return ep.Send(to, m) },
		Resolve: d.txnPeers,
		OwnVote: h.SM.TxnVote,
	})
	h.SM.SetTxnExchanger(ex)
	h.Ex = ex
	h.renewer = d.newLeaseRenewer(pl)
	return h, cluster.Spec{
		ID:      nodeIDFor(pl.p, pl.r),
		Rings:   rings,
		SM:      h.SM,
		Ckpt:    ckpt,
		Starts:  pl.starts,
		Install: pl.install,
		Service: func(env transport.Envelope) bool {
			if _, isVote := env.Msg.(*msg.TxnVote); !isVote {
				return false
			}
			ex.Handle(env)
			return true
		},
		OnStop: func() {
			ex.Close()
			if h.renewer != nil {
				h.renewer.stop()
			}
		},
	}
}

// txnPeers resolves the live replica addresses of a participant
// partition for the vote exchanger. Reading the mutable topology is safe
// here: votes travel outside the ordered planes, so a stale answer only
// delays an exchange (the periodic re-push retries), never corrupts it.
func (d *Deployment) txnPeers(part uint16) []transport.Addr {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := int(part)
	if p >= len(d.parts) || d.parts[p].retired {
		return nil
	}
	return append([]transport.Addr(nil), d.parts[p].addrs...)
}

// ReplicaAt returns replica r of partition p (nil when out of range),
// safely against a concurrent RecoverReplica replacing the handle. Use it
// instead of indexing Replicas while failure injection is running.
func (d *Deployment) ReplicaAt(p, r int) *ReplicaHandle {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.handleAt(p, r)
}

func (d *Deployment) handleAt(p, r int) *ReplicaHandle {
	if p < len(d.Replicas) && r < len(d.Replicas[p]) {
		return d.Replicas[p][r]
	}
	return nil
}

// startTrimming launches a trim coordinator per ring at the ring's first
// replica, wiring its Aux to serve both roles (replica and coordinator).
// The global ring's replicas are every seed replica; its acceptors are
// each partition's first replica.
func (d *Deployment) startTrimming() {
	start := func(h0 *ReplicaHandle, ring msg.RingID, replicas, acceptors []transport.Addr) {
		tc := recovery.NewTrimCoordinator(recovery.TrimConfig{
			Ring:      ring,
			Endpoint:  h0.Node.Endpoint(),
			Replicas:  replicas,
			Acceptors: acceptors,
			Interval:  d.cfg.TrimInterval,
		})
		rep := h0.Replica
		h0.Aux[ring].Set(func(env transport.Envelope) {
			switch env.Msg.(type) {
			case *msg.TrimQuery:
				rep.HandleTrimQuery(env)
			case *msg.TrimReply:
				tc.HandleReply(env)
			}
		})
		tc.Start()
		d.trims = append(d.trims, tc)
	}
	var all, firsts []transport.Addr
	for p := 0; p < d.cfg.Partitions; p++ {
		addrs := d.parts[p].addrs
		start(d.Replicas[p][0], d.parts[p].ring, addrs, addrs)
		all, firsts = append(all, addrs...), append(firsts, addrs[0])
	}
	if d.cfg.GlobalRing {
		start(d.Replicas[0][0], d.GlobalRingID(), all, firsts)
	}
}

// TrimCoordinators exposes the running trim coordinators (nil without
// TrimInterval).
func (d *Deployment) TrimCoordinators() []*recovery.TrimCoordinator { return d.trims }

// Preload inserts initial records directly into every replica's state
// machine, modeling a database initialized before the experiment starts
// (Figure 4 initializes 1 GB of data) without paying consensus for the
// load phase.
func (d *Deployment) Preload(entries []Entry) {
	part := d.Partitioner()
	for _, hs := range d.Replicas {
		for _, h := range hs {
			for _, e := range entries {
				if part.PartitionOf(e.Key) == h.Partition {
					h.SM.Data().Put(e.Key, e.Value)
				}
			}
		}
	}
}

// CrashReplica stops replica r of partition p and heals the rings around
// it (Section 8.5 terminates a replica at runtime).
func (d *Deployment) CrashReplica(p, r int) {
	if h := d.ReplicaAt(p, r); h != nil && h.Stop() {
		cluster.Heal(d.members(), nodeIDFor(p, r), true)
	}
}

// RecoverReplica restarts a crashed replica: it retrieves the most recent
// checkpoint from its partition peers (quorum Q_R), installs it, rejoins
// its rings at the recovered instances, and the rings replay the suffix
// from the acceptors. It works for every committed partition — the seed
// partitions of Deploy and partitions appended by a live split alike —
// because ring memberships, roles, and subscription points are read from
// the deployment's partition table (the same table that routes clients),
// not from the static deploy config. A split partition's
// replica rejoins its ring at the recovered frontier and
// resumes redirect behavior from the snapshot's schema state; if no
// checkpoint survives anywhere, it replays the full ring from the
// partition's deterministic birth state (warming, at the split's epoch).
func (d *Deployment) RecoverReplica(p, r int) error {
	d.mu.RLock()
	valid := p >= 0 && p < d.partitioner.N() && p < len(d.parts) && !d.parts[p].retired &&
		r >= 0 && p < len(d.Replicas) && r < len(d.Replicas[p])
	var meta partMeta
	var peers []transport.Addr
	var members []cluster.Ring
	if valid {
		meta = d.parts[p]
		for i, other := range d.Replicas[p] {
			if i != r && other != nil && !other.Stopped() {
				peers = append(peers, meta.addrs[i])
			}
		}
		members = d.memberships(p)
	}
	d.mu.RUnlock()
	if !valid {
		// Provisioned-but-uncommitted partitions (mid-protocol) and retired
		// tombstones are not recoverable: their membership is not part of
		// the committed topology.
		return fmt.Errorf("store: no committed partition %d replica %d to recover", p, r)
	}
	starts, install, err := d.cl.Recover(meta.addrs[r], peers, d.ReplicaAt(p, r).Ckpt)
	if err != nil {
		return err
	}
	hs, err := d.startReplicas([]replicaPlan{{p: p, r: r, members: members, birth: meta.birth, starts: starts, install: install}})
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.Replicas[p][r] = hs[0]
	d.mu.Unlock()
	cluster.Heal(d.members(), nodeIDFor(p, r), false)
	return nil
}

// members lists the cluster members of every replica slot.
func (d *Deployment) members() []*cluster.Member {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var ms []*cluster.Member
	for _, hs := range d.Replicas {
		for _, h := range hs {
			if h != nil {
				ms = append(ms, h.Member)
			}
		}
	}
	return ms
}

// Stop shuts the whole deployment down. Each lease renewer stops with its
// holder; Stop returns once every renewer has exited.
func (d *Deployment) Stop() {
	for _, tc := range d.trims {
		tc.Stop()
	}
	d.trims = nil
	for _, m := range d.members() {
		m.Stop()
	}
	d.renewing.Wait()
}

// AddPartition builds and starts the replicas of partition index part on a
// ring from the allocator (recycling retired ring IDs first). Like every
// replica, each joins its ring before it starts; the partition starts
// warming — its state machines reject client commands until an
// opActivatePart command is delivered on the ring — and is not part of the
// committed topology until AdoptReconfig. part must be the next free
// partition index (the committed partitioner's N); it may reuse the
// tombstone of a retired partition at the top of the index space.
// partitioner is the post-split mapping; epoch its epoch.
func (d *Deployment) AddPartition(partitioner Partitioner, part int, epoch uint64) (ring msg.RingID, addrs []transport.Addr, err error) {
	cfg := d.cfg
	d.mu.Lock()
	switch {
	case part < len(d.parts) && !d.parts[part].retired:
		// A previous failed split left an orphan partition behind (or the
		// index is simply live); wiring a new one up would route the moved
		// range to the wrong replicas.
		d.mu.Unlock()
		return 0, nil, fmt.Errorf("store: partition index %d is already in use (%d provisioned, %d committed); resolve the stale partition first",
			part, len(d.parts), d.partitioner.N())
	case part > len(d.parts):
		d.mu.Unlock()
		return 0, nil, fmt.Errorf("store: partition index %d skips past %d provisioned partitions", part, len(d.parts))
	}
	if n := len(d.freeRings); n > 0 {
		ring = d.freeRings[n-1]
		d.freeRings = d.freeRings[:n-1]
	} else {
		ring = d.nextRing
		d.nextRing++
	}
	for r := 0; r < cfg.Replicas; r++ {
		addrs = append(addrs, cfg.AddrFor(part, r))
	}
	d.mu.Unlock()

	birth := &splitBirth{epoch: epoch, partitioner: partitioner}
	members := []cluster.Ring{{ID: ring, Peers: ringPeers(part, addrs, false)}}
	plans := make([]replicaPlan, cfg.Replicas)
	for r := range plans {
		plans[r] = replicaPlan{p: part, r: r, members: members, birth: birth}
	}
	hs, err := d.startReplicas(plans)
	if err != nil {
		d.mu.Lock()
		d.freeRings = append(d.freeRings, ring)
		d.mu.Unlock()
		return 0, nil, err
	}
	d.mu.Lock()
	meta := partMeta{ring: ring, addrs: addrs, birth: birth}
	if part == len(d.parts) {
		d.Replicas = append(d.Replicas, hs)
		d.parts = append(d.parts, meta)
	} else {
		// Rebirth of a retired index: the tombstone's slot is reused.
		d.Replicas[part] = hs
		d.parts[part] = meta
	}
	d.mu.Unlock()
	return ring, addrs, nil
}

// RemovePartition tears down a provisioned-but-uncommitted partition
// (rollback of AddPartition when the reconfiguration protocol aborts). The
// partition's replicas are stopped and the entry reverts to a tombstone —
// its ring ID returns to the allocator and the index can be reused by the
// next split.
func (d *Deployment) RemovePartition(part int) error {
	d.mu.Lock()
	if part < 0 || part >= len(d.parts) || part < d.partitioner.N() || d.parts[part].retired {
		n := len(d.parts)
		d.mu.Unlock()
		return fmt.Errorf("store: partition %d is not an uncommitted partition (%d parts, %d committed)",
			part, n, d.partitioner.N())
	}
	hs := d.Replicas[part]
	ring := d.parts[part].ring
	if part == len(d.parts)-1 {
		d.Replicas = d.Replicas[:part]
		d.parts = d.parts[:part]
	} else {
		d.Replicas[part] = nil
		d.parts[part] = partMeta{retired: true}
	}
	d.freeRings = append(d.freeRings, ring)
	d.mu.Unlock()
	stopAll(hs)
	return nil
}

// RetirePartition tears down the ring of a partition that was merged away:
// its replicas stop, which takes the ring out of every node that ran it.
// The partition entry becomes a tombstone and the ring ID returns to the
// allocator for the next split to recycle. The committed partitioner must
// no longer assign any range to the partition (i.e. the merge was
// committed first).
func (d *Deployment) RetirePartition(part int) error {
	d.mu.Lock()
	if part < 0 || part >= len(d.parts) || part >= len(d.Replicas) {
		d.mu.Unlock()
		return fmt.Errorf("store: no partition %d to retire", part)
	}
	if d.parts[part].retired {
		d.mu.Unlock()
		return nil // idempotent: a resumed teardown retires at most once
	}
	if part < d.partitioner.N() {
		if rp, ok := d.partitioner.(*RangePartitioner); ok {
			for _, a := range rp.Assignments() {
				if a == part {
					d.mu.Unlock()
					return fmt.Errorf("store: partition %d still owns a key range; commit the merge before retiring it", part)
				}
			}
		} else {
			d.mu.Unlock()
			return fmt.Errorf("store: partition %d is part of the committed topology", part)
		}
	}
	hs := d.Replicas[part]
	ring := d.parts[part].ring
	d.Replicas[part] = nil
	d.parts[part] = partMeta{retired: true}
	d.freeRings = append(d.freeRings, ring)
	d.mu.Unlock()
	stopAll(hs)
	return nil
}

// stopAll stops the replicas of a partition taken out of the topology.
func stopAll(hs []*ReplicaHandle) {
	for _, h := range hs {
		if h != nil {
			h.Stop()
		}
	}
}

// AdoptReconfig commits a reconfiguration into the deployment's topology:
// the partitioner and epoch advance, and clients created from (or
// refreshed against) the deployment route under the new mapping. Called by
// the rebalance coordinator after the moved range is fully migrated (and,
// for a split, the new partition activated), immediately before the
// ownership flip is ordered through the rings (opCommitReconfig).
//
// It adopts only the epoch right after the committed one and reports
// whether it did. A false result means a concurrent publisher advanced the
// schema first (or the caller skipped an epoch); nothing changed, and the
// caller must abort rather than overwrite.
func (d *Deployment) AdoptReconfig(epoch uint64, partitioner Partitioner) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if epoch != d.epoch+1 {
		return false
	}
	d.epoch = epoch
	d.partitioner = partitioner
	if epoch > d.viewEpoch {
		d.viewEpoch = epoch
	}
	return true
}

// RevertReconfig undoes AdoptReconfig for an aborted reconfiguration: if
// the deployment sits exactly at the aborted epoch it falls back to the
// recorded pre-reconfiguration mapping; any other epoch is left alone (the
// adopt never happened, or a later reconfiguration superseded it). The
// committed epoch rolls back — the next plan reuses the aborted number —
// but the client-view watermark (viewEpoch) does not, so clients that saw
// the aborted epoch keep refreshing successfully.
func (d *Deployment) RevertReconfig(epoch uint64, prev Partitioner) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.epoch == epoch && prev != nil {
		d.epoch = epoch - 1
		d.partitioner = prev
	}
}

// PlanKind names the two reconfigurations the rebalance engine executes.
type PlanKind string

const (
	// PlanSplit carves a key range out of a partition onto a freshly
	// provisioned partition and ring.
	PlanSplit PlanKind = "split"
	// PlanMerge streams a donor partition into an adjacent survivor and
	// retires the donor's ring.
	PlanMerge PlanKind = "merge"
)

// Plan is the record of one reconfiguration in flight: the donor range
// being frozen, the destination receiving it, the rings ordering each
// phase, and the mapping to revert to. The rebalance coordinator records
// it before its first ordered command, so a successor can abort or finish
// it after a crash.
type Plan struct {
	Kind  PlanKind
	Epoch uint64
	// Donor is the partition losing a range: the split source, or the
	// merge partition being drained and retired.
	Donor int
	// Dest is the partition gaining the range: the split's new partition,
	// or the merge survivor.
	Dest int
	// SplitKey is the lower bound of the moved range (splits only).
	SplitKey string
	// DonorVia is the ring ordering the donor's prepare/abort/commit: the
	// global ring when the donor subscribes to it, else the donor's own.
	DonorVia msg.RingID
	// DestRing is the destination's ring: migrate chunks, activation, and
	// (merges) the commit are ordered on it.
	DestRing msg.RingID
	// Provisioned records that the plan created Dest (aborts remove it).
	Provisioned bool
	// Published records that this plan's own AdoptReconfig succeeded:
	// resolving it means rolling forward, otherwise aborting.
	Published bool
	// Prev is the pre-reconfiguration mapping an abort reverts to.
	Prev *RangePartitioner
}

// RecordPlan records the reconfiguration in flight, replacing any earlier
// record.
func (d *Deployment) RecordPlan(p Plan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan = &p
}

// PendingPlan returns a copy of the recorded reconfiguration, if any.
func (d *Deployment) PendingPlan() (Plan, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.plan == nil {
		return Plan{}, false
	}
	return *d.plan, true
}

// ClearPlan drops the record once its reconfiguration is resolved.
func (d *Deployment) ClearPlan() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan = nil
}

// Lead is the controller lease: it grants the lease to owner if no one
// holds it and reports whether owner holds it. Owners are compared by
// identity, so pass a pointer.
func (d *Deployment) Lead(owner any) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.leader == nil {
		d.leader = owner
	}
	return d.leader == owner
}

// Resign releases the controller lease if owner holds it.
func (d *Deployment) Resign(owner any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.leader == owner {
		d.leader = nil
	}
}

// currentView snapshots the committed routing state for a client: per
// committed partition its ring, its global-ring subscription, its
// proposers and its advertised lease holder; the global ring's proposers
// are the first replica of every subscribed partition. Retired indexes
// keep the arrays aligned but get no route (no key maps to them). The
// view's epoch is the watermark, and the advertised lease holder of a
// partition is its designated holder while that replica is up (advisory:
// the replica itself decides whether it may actually serve).
func (d *Deployment) currentView() routeView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := d.partitioner.N()
	v := routeView{
		epoch:        d.viewEpoch,
		partitioner:  d.partitioner,
		rings:        make([]msg.RingID, n),
		onGlobal:     make([]bool, n),
		global:       d.GlobalRingID(),
		proposers:    make(map[msg.RingID][]transport.Addr),
		leaseHolders: make([]transport.Addr, n),
	}
	var globalAddrs []transport.Addr
	for p := 0; p < n && p < len(d.parts); p++ {
		meta := d.parts[p]
		if meta.retired {
			continue
		}
		v.rings[p], v.onGlobal[p] = meta.ring, meta.onGlobal
		v.proposers[meta.ring] = meta.addrs
		if meta.onGlobal {
			globalAddrs = append(globalAddrs, meta.addrs[0])
		}
		hIdx := leaseHolderIdx(len(meta.addrs))
		if h := d.handleAt(p, hIdx); !d.cfg.Lease.Disabled && h != nil && !h.Stopped() {
			v.leaseHolders[p] = meta.addrs[hIdx]
		}
	}
	if v.global != 0 {
		v.proposers[v.global] = globalAddrs
	}
	return v
}

// NewClient creates a store client with a fresh endpoint and unique ID.
func (d *Deployment) NewClient() *Client {
	id := 1_000_000 + d.nextID.Add(1)
	ep, err := d.cl.EndpointFor(transport.Addr(fmt.Sprintf("store-client-%d", id)))
	if err != nil {
		panic(fmt.Sprintf("store: client endpoint: %v", err))
	}
	return d.NewClientAt(ep, id)
}

// NewClientAt creates a client on a caller-provided endpoint (e.g. placed
// in a specific region of a WAN simulation). The client routes by the
// deployment's live topology: it refreshes its cached view whenever a
// replica answers with the typed wrong-epoch redirect.
func (d *Deployment) NewClientAt(ep transport.Endpoint, id uint64) *Client {
	return newClient(ep, id, d)
}
