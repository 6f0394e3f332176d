package dlog

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mrp/internal/cluster"
	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/ringpaxos"
	"mrp/internal/smr"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// DeployConfig describes a dLog deployment: k logs, one ring per log, plus
// a common ring shared by all servers for multi-appends (the Figure 6
// topology: "learners subscribe to k rings and to a common ring shared by
// all learners"). Servers are co-located ring members.
type DeployConfig struct {
	// Net is the simulated network. Leave nil when providing EndpointFor.
	Net *netsim.Network
	// EndpointFor creates the endpoint for a server address; defaults to
	// Net.Endpoint.
	EndpointFor func(transport.Addr) (transport.Endpoint, error)
	// AddrFor names server endpoints; default "dlog-s<i>". Use real
	// host:port addresses for TCP deployments.
	AddrFor func(server int) transport.Addr
	// Logs is the number of logs (= rings).
	Logs int
	// Servers is the number of dLog servers (default 3).
	Servers int
	// SyncWrites selects synchronous service-level disk writes (Figure 5).
	SyncWrites bool
	// StorageMode is the acceptors' stable-storage mode.
	StorageMode storage.Mode
	// DiskModel is the per-(server, log) data disk; each log gets its own
	// device on each server, as in the vertical-scalability experiment.
	DiskModel storage.DiskModel
	// DiskScale scales disk service times.
	DiskScale float64

	// Ring tuning. BatchDelay bounds how long a proposal waits for its
	// batch; with a sync-mode log the coordinator cuts batches when its log
	// is idle (ringpaxos.Config.BatchDelay).
	BatchMaxBytes int
	BatchDelay    time.Duration
	SkipInterval  time.Duration
	SkipRate      int
	RetryTimeout  time.Duration
}

// ServerHandle bundles one dLog server: its cluster member (node, learner,
// SMR replica, checkpoint store) and its per-log disks.
type ServerHandle struct {
	*cluster.Member
	Index int
	SM    *SM
	Disks map[LogID]*storage.Disk

	logs map[msg.RingID]*storage.Log
}

// Deployment is a running dLog cluster.
type Deployment struct {
	cfg       DeployConfig
	cl        cluster.Config
	Servers   []*ServerHandle
	ringPeers [][]ringpaxos.Peer
	nextID    atomic.Uint64
}

// LogRing returns the ring of one log.
func (d *Deployment) LogRing(l LogID) msg.RingID { return msg.RingID(int(l) + 1) }

// CommonRing returns the shared multi-append ring.
func (d *Deployment) CommonRing() msg.RingID { return msg.RingID(d.cfg.Logs + 1) }

// Deploy builds and starts a dLog cluster.
func Deploy(cfg DeployConfig) (*Deployment, error) {
	if cfg.Logs <= 0 {
		return nil, errors.New("dlog: need at least one log")
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 3
	}
	if cfg.AddrFor == nil {
		cfg.AddrFor = func(s int) transport.Addr {
			return transport.Addr(fmt.Sprintf("dlog-s%d", s))
		}
	}
	d := &Deployment{cfg: cfg, cl: cluster.Config{
		Net:           cfg.Net,
		EndpointFor:   cfg.EndpointFor,
		DiskScale:     cfg.DiskScale,
		BatchMaxBytes: cfg.BatchMaxBytes,
		BatchDelay:    cfg.BatchDelay,
		SkipInterval:  cfg.SkipInterval,
		SkipRate:      cfg.SkipRate,
		RetryTimeout:  cfg.RetryTimeout,
	}.WithDefaults()}

	// All servers are members of every ring (logs + common).
	nRings := cfg.Logs + 1
	d.ringPeers = make([][]ringpaxos.Peer, nRings)
	for ri := range d.ringPeers {
		for s := 0; s < cfg.Servers; s++ {
			d.ringPeers[ri] = append(d.ringPeers[ri], ringpaxos.Peer{
				ID:    msg.NodeID(s + 1),
				Addr:  cfg.AddrFor(s),
				Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
			})
		}
	}
	hs, err := d.startServers(0, cfg.Servers, nil, nil)
	if err != nil {
		return nil, err
	}
	d.Servers = hs
	return d, nil
}

// startServers starts servers first..first+n-1 through the shared cluster
// path, which binds every server's endpoint before any of them starts.
// starts and install are the recovered ring frontier and checkpoint of a
// server rebuilt after a crash.
func (d *Deployment) startServers(first, n int, starts map[msg.RingID]msg.Instance, install *storage.Checkpoint) ([]*ServerHandle, error) {
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = d.cfg.AddrFor(first + i)
	}
	hs := make([]*ServerHandle, n)
	ms, err := d.cl.StartAll(addrs, func(i int, _ transport.Endpoint) cluster.Spec {
		var spec cluster.Spec
		hs[i], spec = d.serverSpec(first + i)
		spec.Starts, spec.Install = starts, install
		return spec
	})
	if err != nil {
		return nil, err
	}
	for i, m := range ms {
		hs[i].Member = m
	}
	return hs, nil
}

// serverSpec prepares server s's disks, acceptor logs and state machine.
// Stable storage survives a crash-recover cycle: a rebuilt server reuses
// its predecessor's.
func (d *Deployment) serverSpec(s int) (*ServerHandle, cluster.Spec) {
	cfg := d.cfg
	h := &ServerHandle{Index: s, Disks: make(map[LogID]*storage.Disk), logs: make(map[msg.RingID]*storage.Log)}
	ckpt := storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk))
	if old := d.server(s); old != nil {
		h.Disks, h.logs, ckpt = old.Disks, old.logs, old.Ckpt
	}
	rings := make([]cluster.Ring, len(d.ringPeers))
	for ri, peers := range d.ringPeers {
		ring := msg.RingID(ri + 1)
		log, ok := h.logs[ring]
		if !ok {
			// Each log ring gets its own disk per server; the common ring
			// (multi-appends) shares the first log's disk.
			disk := h.Disks[0]
			if ri < cfg.Logs {
				disk = storage.NewDisk(cfg.DiskModel.Scale(d.cl.DiskScale))
				h.Disks[LogID(ri)] = disk
			}
			log = storage.NewLogOnDisk(cfg.StorageMode, disk)
			h.logs[ring] = log
		}
		rings[ri] = cluster.Ring{ID: ring, Peers: peers, Log: log}
	}
	h.SM = NewSM(SMConfig{Disks: h.Disks, SyncWrites: cfg.SyncWrites})
	return h, cluster.Spec{ID: msg.NodeID(s + 1), Rings: rings, SM: h.SM, Ckpt: ckpt}
}

// server returns server s's handle (nil when out of range).
func (d *Deployment) server(s int) *ServerHandle {
	if s >= 0 && s < len(d.Servers) {
		return d.Servers[s]
	}
	return nil
}

// members lists every server's cluster member.
func (d *Deployment) members() []*cluster.Member {
	ms := make([]*cluster.Member, 0, len(d.Servers))
	for _, h := range d.Servers {
		if h != nil {
			ms = append(ms, h.Member)
		}
	}
	return ms
}

// CrashServer stops a server and heals the rings around it.
func (d *Deployment) CrashServer(s int) {
	if h := d.server(s); h != nil && h.Stop() {
		cluster.Heal(d.members(), msg.NodeID(s+1), true)
	}
}

// RecoverServer restarts a crashed server via the Section 5.2 protocol:
// checkpoint discovery from a quorum of peers, state transfer, and replay
// of the per-ring suffix from the acceptors.
func (d *Deployment) RecoverServer(s int) error {
	old := d.server(s)
	if old == nil {
		return fmt.Errorf("dlog: no server %d to recover", s)
	}
	var peers []transport.Addr
	for i, h := range d.Servers {
		if i != s && h != nil && !h.Stopped() {
			peers = append(peers, d.cfg.AddrFor(i))
		}
	}
	starts, install, err := d.cl.Recover(d.cfg.AddrFor(s), peers, old.Ckpt)
	if err != nil {
		return err
	}
	hs, err := d.startServers(s, 1, starts, install)
	if err != nil {
		return err
	}
	d.Servers[s] = hs[0]
	cluster.Heal(d.members(), msg.NodeID(s+1), false)
	return nil
}

// Stop shuts the deployment down.
func (d *Deployment) Stop() {
	for _, m := range d.members() {
		m.Stop()
	}
	d.Servers = nil
}

// NewClient creates a dLog client with a fresh endpoint.
func (d *Deployment) NewClient() *Client {
	id := 2_000_000 + d.nextID.Add(1)
	ep, err := d.cl.EndpointFor(transport.Addr(fmt.Sprintf("dlog-client-%d", id)))
	if err != nil {
		panic(fmt.Sprintf("dlog: client endpoint: %v", err))
	}
	return d.NewClientAt(ep, id)
}

// NewClientAt creates a client on a caller-provided endpoint.
func (d *Deployment) NewClientAt(ep transport.Endpoint, id uint64) *Client {
	proposers := make(map[msg.RingID][]transport.Addr)
	var addrs []transport.Addr
	for s := 0; s < d.cfg.Servers; s++ {
		addrs = append(addrs, d.cfg.AddrFor(s))
	}
	for ri := 0; ri < d.cfg.Logs+1; ri++ {
		proposers[msg.RingID(ri+1)] = addrs
	}
	return &Client{
		smr: smr.NewClient(smr.ClientConfig{
			ID:        id,
			Endpoint:  ep,
			Proposers: proposers,
			Timeout:   20 * time.Second,
		}),
		ep: ep,
		d:  d,
	}
}

// Client accesses a dLog deployment through the Table 2 operations. A
// Client is safe for concurrent use by multiple goroutines: each call is
// an independent command under its own sequence number, ordered against
// the others only by the rings.
type Client struct {
	smr *smr.Client
	ep  transport.Endpoint
	d   *Deployment
}

// Close releases the client and closes its endpoint.
func (c *Client) Close() {
	c.smr.Close()
	_ = c.ep.Close()
}

func (c *Client) call(ring msg.RingID, o op) (result, error) {
	raw, err := c.smr.Execute(ring, o.encode())
	if err != nil {
		return result{}, err
	}
	res, err := decodeResult(raw)
	if err != nil {
		return result{}, err
	}
	if res.status == statusError {
		return res, errBadOp
	}
	return res, nil
}

// Append appends v to log l and returns the assigned position.
func (c *Client) Append(l LogID, v []byte) (uint64, error) {
	res, err := c.call(c.d.LogRing(l), op{kind: opAppend, log: l, data: v})
	if err != nil {
		return 0, err
	}
	if len(res.positions) != 1 {
		return 0, errBadOp
	}
	return res.positions[0].pos, nil
}

// MultiAppend atomically appends v to every log in logs and returns the
// position assigned in each. The command is multicast through the common
// ring so it is ordered against all single-log appends.
func (c *Client) MultiAppend(logs []LogID, v []byte) (map[LogID]uint64, error) {
	res, err := c.call(c.d.CommonRing(), op{kind: opMultiAppend, logs: logs, data: v})
	if err != nil {
		return nil, err
	}
	out := make(map[LogID]uint64, len(res.positions))
	for _, lp := range res.positions {
		out[lp.log] = lp.pos
	}
	return out, nil
}

// Read returns the value at position p of log l.
func (c *Client) Read(l LogID, p uint64) ([]byte, error) {
	res, err := c.call(c.d.LogRing(l), op{kind: opRead, log: l, pos: p})
	if err != nil {
		return nil, err
	}
	switch res.status {
	case statusTrimmed:
		return nil, ErrTrimmed
	case statusOutOfRange:
		return nil, ErrOutOfRange
	}
	return res.data, nil
}

// Trim trims log l up to position p.
func (c *Client) Trim(l LogID, p uint64) error {
	_, err := c.call(c.d.LogRing(l), op{kind: opTrim, log: l, pos: p})
	return err
}
