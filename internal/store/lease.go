package store

import (
	"fmt"
	"sync"
	"time"

	"mrp/internal/msg"
	"mrp/internal/registry"
	"mrp/internal/smr"
	"mrp/internal/transport"
)

// LeasePolicy configures ring leases for consensus-free local reads (see
// internal/smr's lease.go for the protocol). The zero value ENABLES leases
// with defaults — local reads are the common case the optimization exists
// for — so deployments opt out with Disabled rather than opting in.
type LeasePolicy struct {
	// Disabled routes every read through consensus (the pre-lease
	// behavior) and starts no lease managers.
	Disabled bool

	// The lease timing is fixed outside tests, which shorten it to cross
	// expiry boundaries often.
	//
	// duration is the lease duration D carried in every claim: the
	// holder's serve window and the other replicas' silence window are
	// both bounded by it (default 1.5 s).
	duration time.Duration
	// margin is subtracted from the holder's serve window
	// (T_send + duration − margin) to absorb clock-RATE drift between
	// processes over one duration; absolute clock offsets cancel out of
	// the protocol entirely (default duration/5).
	margin time.Duration
	// renewEvery is the claim cadence; well under duration so a healthy
	// holder's window never lapses between renewals (default duration/3).
	renewEvery time.Duration
}

func (p LeasePolicy) withDefaults() LeasePolicy {
	if p.duration <= 0 {
		p.duration = 1500 * time.Millisecond
	}
	if p.margin <= 0 || p.margin >= p.duration {
		p.margin = p.duration / 5
	}
	if p.renewEvery <= 0 {
		p.renewEvery = p.duration / 3
	}
	return p
}

// LeaseHolderPath is the coordination-service node advertising partition
// p's current lease holder (its service address). Advisory routing state:
// a stale advertisement costs a client one declined or timed-out local
// read before it falls back to the ordered path, never a wrong result.
func LeaseHolderPath(p int) string { return fmt.Sprintf("/mrp-store/leases/p%d", p) }

// RevokeLease orders a lease revocation on ring: every replica that
// delivers it deactivates its replicated lease table, so the holder stops
// serving local reads and — no longer named by the lease — resumes
// answering ordered commands as it applies them. The other replicas'
// silence windows keep running on their own clocks (the old holder may
// still serve reads until it applies the revoke, so an early ack from
// anyone else could outrun the holder's applied state). The rebalance
// coordinator orders one on the same ring as each reconfiguration
// prepare, immediately before it, so no lease granted against the
// pre-freeze state spans the freeze (the partition's lease manager
// re-establishes a lease afterwards, and that claim's grant frontier
// covers the prepare). On a deployment whose ordering ring is shared (the
// global ring), the revocation reaches every subscribed partition; the
// cost is one renewal interval of ordered reads there, not a correctness
// concern.
//
//mrp:ordered
func (c *Client) RevokeLease(ring msg.RingID) error {
	raw, err := c.smr.Execute(ring, smr.EncodeLeaseRevoke())
	if err != nil {
		return err
	}
	if ack, ok := smr.DecodeLeaseAck(raw); !ok || ack.Active {
		return fmt.Errorf("store: lease revoke on ring %d not acknowledged", ring)
	}
	return nil
}

// leaseHolderIdx is the replica index designated as a partition's lease
// holder: the second replica when one exists. Replica 0's node is the
// ring's coordinator, and the seed tolerates only non-coordinator acceptor
// crashes — pinning the lease to a different replica keeps a holder crash
// survivable (the ring keeps ordering while the lease lapses) and keeps
// the read-serving load off the proposal leader.
func leaseHolderIdx(replicas int) int {
	if replicas > 1 {
		return 1
	}
	return 0
}

// leaseManager keeps one partition's read lease claimed for its designated
// holder (see leaseHolderIdx): every RenewEvery it fixes the serve deadline
// from its own clock, registers it at the holder, and proposes an ordered
// claim on the partition's ring. It is deployment-side plumbing, not
// protocol — all safety lives in the replicas' lease state machine.
type leaseManager struct {
	d   *Deployment
	p   int
	pol LeasePolicy
	ep  transport.Endpoint
	cl  *smr.Client

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// startLeaseManager launches the lease manager of partition p.
func (d *Deployment) startLeaseManager(p int) error {
	id := 2_000_000 + d.nextID.Add(1)
	ep, err := d.cl.EndpointFor(transport.Addr(fmt.Sprintf("store-lease-p%d-%d", p, id)))
	if err != nil {
		return err
	}
	m := &leaseManager{
		d:   d,
		p:   p,
		pol: d.cfg.Lease,
		ep:  ep,
		cl: smr.NewClient(smr.ClientConfig{
			ID:       id,
			Endpoint: ep,
			Timeout:  d.cfg.Lease.duration,
		}),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	d.leaseMu.Lock()
	if d.leaseMgrs == nil {
		d.leaseMgrs = make(map[int]*leaseManager)
	}
	old := d.leaseMgrs[p]
	d.leaseMgrs[p] = m
	d.leaseMu.Unlock()
	if old != nil {
		old.Stop()
	}
	go m.run()
	return nil
}

// stopLeaseManager stops (and forgets) partition p's lease manager, if any.
func (d *Deployment) stopLeaseManager(p int) {
	d.leaseMu.Lock()
	m := d.leaseMgrs[p]
	delete(d.leaseMgrs, p)
	d.leaseMu.Unlock()
	if m != nil {
		m.Stop()
	}
}

// stopLeaseManagers stops every lease manager (deployment teardown).
func (d *Deployment) stopLeaseManagers() {
	d.leaseMu.Lock()
	ms := make([]*leaseManager, 0, len(d.leaseMgrs))
	for _, m := range d.leaseMgrs {
		ms = append(ms, m)
	}
	d.leaseMgrs = nil
	d.leaseMu.Unlock()
	for _, m := range ms {
		m.Stop()
	}
}

// setLeaseRegistry records the coordination service lease managers
// advertise holders in. Publishing the schema is the moment a registry
// becomes part of a deployment, so every Publish* variant calls this.
func (d *Deployment) setLeaseRegistry(reg *registry.Registry) {
	d.leaseMu.Lock()
	d.leaseReg = reg
	d.leaseMu.Unlock()
}

func (d *Deployment) leaseRegistry() *registry.Registry {
	d.leaseMu.Lock()
	defer d.leaseMu.Unlock()
	return d.leaseReg
}

// Stop halts the manager. Closing the client first unblocks a claim in
// flight, so Stop never waits out a proposal timeout against a ring that
// is being torn down.
func (m *leaseManager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.cl.Close()
	<-m.done
	_ = m.ep.Close()
}

func (m *leaseManager) run() {
	defer close(m.done)
	defer m.unadvertise()
	t := time.NewTicker(m.pol.renewEvery)
	defer t.Stop()
	for {
		m.renew()
		select {
		case <-t.C:
		case <-m.stop:
			return
		}
	}
}

// renew proposes one ordered claim for the partition's designated holder
// and refreshes the advertisement. Failures are left to the next tick —
// the worst outcome of a missed renewal is reads temporarily paying for
// ordering again.
func (m *leaseManager) renew() {
	d := m.d
	d.mu.RLock()
	ok := m.p < len(d.parts) && !d.parts[m.p].retired
	var meta partMeta
	if ok {
		meta = d.parts[m.p]
		meta.addrs = append([]transport.Addr(nil), meta.addrs...)
	}
	d.mu.RUnlock()
	if !ok {
		m.unadvertise()
		return
	}
	hIdx := leaseHolderIdx(len(meta.addrs))
	h := d.ReplicaAt(m.p, hIdx)
	if h == nil || h.Stopped() {
		// The holder is down. Claiming now would re-arm every survivor's
		// silence window while nobody serves: let the outstanding lease
		// lapse so the survivors resume acknowledging writes, and withdraw
		// the advertisement so clients stop probing a dead holder.
		m.unadvertise()
		return
	}
	m.cl.SetProposers(meta.ring, meta.addrs)
	seq := m.cl.Reserve()
	// T_send is read BEFORE the claim is proposed: the serve window must
	// be anchored no later than any replica's apply of this claim for the
	// no-overlap bound to hold (see internal/smr's lease.go).
	deadline := time.Now().Add(m.pol.duration - m.pol.margin)
	h.Replica.RegisterLeaseClaim(m.cl.ID(), seq, deadline)
	claim := smr.EncodeLeaseClaim(nodeIDFor(m.p, hIdx), m.pol.duration)
	if _, err := m.cl.ExecuteGatherAt(seq, []msg.RingID{meta.ring}, claim, 1, nil); err != nil {
		return
	}
	m.advertise(meta.addrs[hIdx])
}

func (m *leaseManager) advertise(addr transport.Addr) {
	if reg := m.d.leaseRegistry(); reg != nil {
		reg.SetIfChanged(LeaseHolderPath(m.p), []byte(addr))
	}
}

func (m *leaseManager) unadvertise() {
	if reg := m.d.leaseRegistry(); reg != nil {
		reg.Delete(LeaseHolderPath(m.p))
	}
}
