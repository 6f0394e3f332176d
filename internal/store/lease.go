package store

import (
	"fmt"
	"sync"
	"time"

	"mrp/internal/cluster"
	"mrp/internal/msg"
	"mrp/internal/ringpaxos"
	"mrp/internal/smr"
)

// LeasePolicy configures ring leases for consensus-free local reads (see
// internal/smr's lease.go for the protocol). The zero value ENABLES leases
// with defaults — local reads are the common case the optimization exists
// for — so deployments opt out with Disabled rather than opting in.
type LeasePolicy struct {
	// Disabled routes every read through consensus (the pre-lease
	// behavior) and starts no lease renewers.
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

// RevokeLease orders a lease revocation on ring: every replica that
// delivers it deactivates its replicated lease table, so the holder stops
// serving local reads and — no longer named by the lease — resumes
// answering ordered commands as it applies them. The other replicas'
// silence windows keep running on their own clocks (the old holder may
// still serve reads until it applies the revoke, so an early ack from
// anyone else could outrun the holder's applied state). The rebalance
// coordinator orders one on the same ring as each reconfiguration
// prepare, immediately before it, so no lease granted against the
// pre-freeze state spans the freeze (the holder's renewer re-establishes
// a lease afterwards, and that claim's grant frontier covers the
// prepare). On a deployment whose ordering ring is shared (the
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

// leaseRenewer keeps a partition's read lease claimed for the designated
// holder it runs beside (see leaseHolderIdx). Every renewEvery it fixes the
// serve deadline from the holder's clock, registers it with the holder's
// replica and proposes the claim through the holder's own ring process. It
// starts with the holder and stops with it, so a crashed holder claims
// nothing: the outstanding lease lapses and the survivors resume
// answering. All safety lives in the replicas' lease state machine.
type leaseRenewer struct {
	d    *Deployment
	ring msg.RingID
	// id is the ClientID of this holder incarnation's claims. A recovered
	// holder starts its claim sequence over, so a reused ID would have its
	// claims swallowed by the replicas' dedup window.
	id uint64

	quit     chan struct{}
	stopOnce sync.Once
}

// newLeaseRenewer returns the renewer of the replica planned by pl, or nil
// when leases are off or the replica is not its partition's holder. A
// plan's first ring is its partition's ring.
func (d *Deployment) newLeaseRenewer(pl replicaPlan) *leaseRenewer {
	ring := pl.members[0]
	if d.cfg.Lease.Disabled || pl.r != leaseHolderIdx(len(ring.Peers)) {
		return nil
	}
	return &leaseRenewer{
		d:    d,
		ring: ring.ID,
		id:   2_000_000 + d.nextID.Add(1),
		quit: make(chan struct{}),
	}
}

// start runs the renewer beside its started holder m. Deployment.Stop
// waits for it after every node has stopped, when no Propose can block.
func (r *leaseRenewer) start(m *cluster.Member) {
	proc, _ := m.Node.Process(r.ring)
	r.d.renewing.Add(1)
	go r.run(m.Node.ID(), m.Replica, proc)
}

// run proposes one claim per tick until the holder stops. A claim that is
// lost is superseded by the next one; the worst outcome of a missed
// renewal is reads paying for ordering again until a claim lands.
func (r *leaseRenewer) run(self msg.NodeID, rep *smr.Replica, proc *ringpaxos.Process) {
	defer r.d.renewing.Done()
	pol := r.d.cfg.Lease
	t := time.NewTicker(pol.renewEvery)
	defer t.Stop()
	for seq := uint64(1); ; seq++ {
		// T_send is read BEFORE the claim is proposed: the serve window must
		// be anchored no later than any replica's apply of this claim for the
		// no-overlap bound to hold (see internal/smr's lease.go).
		rep.RegisterLeaseClaim(r.id, seq, time.Now().Add(pol.duration-pol.margin))
		// No ReplyTo: nobody waits for the ack, and the ring process
		// retransmits its own proposal until it is learned.
		claim := smr.Command{ClientID: r.id, Seq: seq, Op: smr.EncodeLeaseClaim(self, pol.duration)}
		if proc.Propose(claim.Encode()) != nil {
			return // the holder's node stopped
		}
		select {
		case <-t.C:
		case <-r.quit:
			return
		}
	}
}

// stop ends the renewer. It runs first when the holder stops, before its
// node does, so it does not wait for a tick that may be blocked in
// Propose.
func (r *leaseRenewer) stop() {
	r.stopOnce.Do(func() { close(r.quit) })
}
