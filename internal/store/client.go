package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mrp/internal/msg"
	"mrp/internal/smr"
	"mrp/internal/transport"
)

// ErrNotFound reports a read/update/delete of a non-existent key.
var ErrNotFound = errors.New("store: key not found")

// WrongEpochError reports that a command kept being redirected with
// statusWrongEpoch until the client's deadline: the replicas are ahead of
// every schema the client could refresh to (or a migration freeze
// outlasted the deadline).
type WrongEpochError struct {
	// ClientEpoch is the epoch the last attempt was routed under.
	ClientEpoch uint64
	// ServerEpoch is the epoch the redirecting replica reported.
	ServerEpoch uint64
}

func (e *WrongEpochError) Error() string {
	return fmt.Sprintf("store: command redirected past deadline (client epoch %d, server epoch %d)",
		e.ClientEpoch, e.ServerEpoch)
}

// routeView is a client's cached routing state: one consistent snapshot of
// the deployment's partitioning and the proposer addresses per ring.
type routeView struct {
	epoch       uint64
	partitioner Partitioner
	rings       []msg.RingID // per partition
	onGlobal    []bool       // per partition
	global      msg.RingID   // 0 when disabled
	proposers   map[msg.RingID][]transport.Addr
	// leaseHolders is, per partition, the service address of the replica
	// advertised as the ring's lease holder ("" when lease reads are off
	// or the partition has no advertised holder). Advisory: a stale entry
	// costs one declined local read, never a wrong result.
	leaseHolders []transport.Addr
}

// leaseHolderFor returns the advertised lease holder of partition p.
func (v *routeView) leaseHolderFor(p int) transport.Addr {
	if p < 0 || p >= len(v.leaseHolders) {
		return ""
	}
	return v.leaseHolders[p]
}

// epochRetryDelay paces retries of commands frozen by an in-flight
// migration (the window between range freeze and schema publish).
const epochRetryDelay = 2 * time.Millisecond

// leaseReadTimeout bounds one local-read attempt against a lease holder.
// Deliberately short: a holder that declines does so immediately, so a
// missing reply means the holder is gone or saturated — fall back to the
// ordered path rather than waiting out the full command timeout.
var leaseReadTimeout = 150 * time.Millisecond

// execTimeout bounds a single routed attempt. It is deliberately shorter
// than the client's overall deadline: an attempt that times out against a
// ring torn down by a merge leaves room to refresh the schema and re-route
// (a dead ring sends no typed redirect, so the timeout is the signal).
var execTimeout = 5 * time.Second

// Client accesses an MRP-Store deployment through the operations of
// Table 1: read, scan, update, insert, delete — plus batched writes
// (Section 7.2). Single-key commands are multicast to the partition owning
// the key; scans are multicast to every partition possibly holding matching
// keys.
//
// The client routes by a cached view of its deployment's schema. When a
// replica answers with the typed wrong-epoch redirect (the key moved to
// another partition in a later schema epoch, or sits in a range frozen by
// an in-flight split), the client refreshes its view from the deployment's
// live topology, re-routes, and retries until its deadline.
//
// A Client is safe for concurrent use by multiple goroutines. Each call is
// an independent command under its own sequence number; calls from
// different goroutines are ordered only by the rings, so a caller that
// needs one write visible to another call must wait for the first to
// return.
type Client struct {
	smr     *smr.Client
	ep      transport.Endpoint
	src     *Deployment
	timeout time.Duration

	// forceGlobal routes every cross-partition transaction through the
	// global ring (the bench baseline; see ForceGlobal).
	forceGlobal atomic.Bool

	mu   sync.Mutex
	view routeView

	// leaseHits counts reads and scans served by the consensus-free lease
	// fast path (observability: tests assert the path was exercised, the
	// reads figure reports the local/ordered mix).
	leaseHits atomic.Int64
}

// LeaseReads reports how many of this client's reads and scans were served
// consensus-free by a lease holder rather than through ordering.
func (c *Client) LeaseReads() int64 { return c.leaseHits.Load() }

// newClient builds a client over an endpoint, routed by src.
func newClient(ep transport.Endpoint, id uint64, src *Deployment) *Client {
	c := &Client{
		smr: smr.NewClient(smr.ClientConfig{
			ID:       id,
			Endpoint: ep,
			Timeout:  execTimeout,
		}),
		ep:      ep,
		src:     src,
		timeout: 20 * time.Second,
	}
	c.refresh()
	return c
}

// Close releases the client and closes its endpoint.
func (c *Client) Close() {
	c.smr.Close()
	_ = c.ep.Close()
}

// currentView returns the cached routing view.
func (c *Client) currentView() routeView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// viewFor returns the routing view for one attempt, eagerly refreshed
// when the deployment's epoch is ahead of the cache. The client would
// otherwise learn of a committed merge only from a timeout against the
// retired ring: the donor's freeze window can be shorter than the gap
// between a client's visits to its range, so the typed redirect alone may
// never reach it before the teardown.
func (c *Client) viewFor() routeView {
	v := c.currentView()
	if c.src.Epoch() > v.epoch {
		c.refresh()
		v = c.currentView()
	}
	return v
}

// Epoch returns the schema epoch the client currently routes under.
func (c *Client) Epoch() uint64 { return c.currentView().epoch }

// refresh re-reads the routing view from the deployment and installs the
// proposer addresses of any newly visible rings.
func (c *Client) refresh() {
	v := c.src.currentView()
	c.mu.Lock()
	if v.epoch >= c.view.epoch {
		c.view = v
	}
	c.mu.Unlock()
	for ring, addrs := range v.proposers {
		c.smr.SetProposers(ring, addrs)
	}
}

// exec submits one op to a ring and decodes the first reply. The result
// carries the typed status — including the statusWrongEpoch redirect —
// that every caller must route on.
//
//mrp:ordered status
func (c *Client) exec(ring msg.RingID, o op) (result, error) {
	raw, err := c.smr.Execute(ring, o.encode())
	if err != nil {
		return result{}, err
	}
	return decodeResult(raw)
}

// rerouteOnTimeout turns an attempt timeout into a retry when refreshing
// the view reveals a newer schema: the torn-down ring of a merged-away
// partition cannot send the typed wrong-epoch redirect, so the timeout
// plus an epoch advance is how a stale client learns its route died.
func (c *Client) rerouteOnTimeout(err error, epoch uint64, deadline time.Time) bool {
	if !errors.Is(err, smr.ErrTimeout) || time.Now().After(deadline) {
		return false
	}
	c.refresh()
	return c.currentView().epoch > epoch
}

// leaseRead attempts the consensus-free fast path for a single-key read:
// one LeaseRead to the partition's advertised holder, no ordering. It
// reports ok=false whenever the ordered path should take over — no
// advertised holder, the holder declined or timed out, or the reply was
// the typed wrong-epoch redirect (the key moved, or its range is frozen
// by an in-flight reconfiguration; the view is refreshed before falling
// back so the ordered attempt routes on fresh state, exactly like any
// other redirected command).
func (c *Client) leaseRead(o op) (result, bool) {
	v := c.viewFor()
	o.epoch = v.epoch
	addr := v.leaseHolderFor(v.partitioner.PartitionOf(o.key))
	if addr == "" {
		return result{}, false
	}
	raw, served, err := c.smr.LeaseRead(addr, o.encode(), leaseReadTimeout)
	if err != nil || !served {
		return result{}, false
	}
	res, err := decodeResult(raw)
	if err != nil || res.status == statusError {
		return result{}, false
	}
	if res.status == statusWrongEpoch {
		c.refresh()
		return result{}, false
	}
	c.leaseHits.Add(1)
	return res, true
}

// leaseScan attempts the consensus-free fast path for a scan whose whole
// range lives in ONE partition with an advertised lease holder; anything
// wider falls back to the ordered fan-out (a multi-partition local scan
// would not be one consistent cut).
func (c *Client) leaseScan(from, to string, limit int) ([]Entry, bool) {
	v := c.viewFor()
	parts := v.partitioner.PartitionsForRange(from, to)
	if len(parts) != 1 {
		return nil, false
	}
	addr := v.leaseHolderFor(parts[0])
	if addr == "" {
		return nil, false
	}
	o := op{kind: opScan, epoch: v.epoch, key: from, to: to, limit: limit}
	raw, served, err := c.smr.LeaseRead(addr, o.encode(), leaseReadTimeout)
	if err != nil || !served {
		return nil, false
	}
	res, err := decodeResult(raw)
	if err != nil || res.status != statusOK {
		if res.status == statusWrongEpoch {
			c.refresh()
		}
		return nil, false
	}
	entries := res.entries
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	c.leaseHits.Add(1)
	return entries, true
}

// callKey routes a single-key op by the cached view and retries through
// wrong-epoch redirects until the deadline.
func (c *Client) callKey(o op) (result, error) {
	deadline := time.Now().Add(c.timeout)
	for {
		v := c.viewFor()
		o.epoch = v.epoch
		p := v.partitioner.PartitionOf(o.key)
		if p >= len(v.rings) {
			return result{}, fmt.Errorf("store: no ring for partition %d", p)
		}
		res, err := c.exec(v.rings[p], o)
		if err != nil {
			if c.rerouteOnTimeout(err, v.epoch, deadline) {
				continue
			}
			return result{}, err
		}
		if res.status == statusError {
			return res, fmt.Errorf("store: server error for %d", o.kind)
		}
		if res.status != statusWrongEpoch {
			return res, nil
		}
		if time.Now().After(deadline) {
			return res, &WrongEpochError{ClientEpoch: o.epoch, ServerEpoch: res.epoch}
		}
		c.repace(v.epoch)
	}
}

// Read returns the value of entry k, if existent. When the owning
// partition advertises a lease holder, the read is served locally by that
// replica without a consensus round (linearizable — see internal/smr's
// lease.go); otherwise, or whenever the fast path declines, it is an
// ordered command like every other op.
//
//mrp:ordered
func (c *Client) Read(k string) ([]byte, error) {
	if res, ok := c.leaseRead(op{kind: opRead, key: k}); ok {
		if res.status == statusNotFound {
			return nil, ErrNotFound
		}
		return res.value, nil
	}
	res, err := c.callKey(op{kind: opRead, key: k})
	if err != nil {
		return nil, err
	}
	if res.status == statusNotFound {
		return nil, ErrNotFound
	}
	return res.value, nil
}

// Update updates entry k with value v, if existent.
//
//mrp:ordered
func (c *Client) Update(k string, v []byte) error {
	res, err := c.callKey(op{kind: opUpdate, key: k, value: v})
	if err != nil {
		return err
	}
	if res.status == statusNotFound {
		return ErrNotFound
	}
	return nil
}

// Insert inserts tuple (k, v) in the database.
//
//mrp:ordered
func (c *Client) Insert(k string, v []byte) error {
	_, err := c.callKey(op{kind: opInsert, key: k, value: v})
	return err
}

// Delete deletes entry k from the database.
//
//mrp:ordered
func (c *Client) Delete(k string) error {
	res, err := c.callKey(op{kind: opDelete, key: k})
	if err != nil {
		return err
	}
	if res.status == statusNotFound {
		return ErrNotFound
	}
	return nil
}

// Scan returns up to limit entries with from <= key <= to, in key order.
// With a global ring that all involved partitions subscribe to, the scan
// is one atomic multicast ordered against all other commands; otherwise it
// fans out per partition (the weaker of the two Figure 4 configurations —
// partitions added by a live split are not global-ring members, so scans
// touching them always fan out).
//
//mrp:ordered
func (c *Client) Scan(from, to string, limit int) ([]Entry, error) {
	if entries, ok := c.leaseScan(from, to, limit); ok {
		return entries, nil
	}
	deadline := time.Now().Add(c.timeout)
	for {
		v := c.viewFor()
		entries, redirected, err := c.scanOnce(v, from, to, limit)
		if err != nil {
			if c.rerouteOnTimeout(err, v.epoch, deadline) {
				continue
			}
			return nil, err
		}
		if !redirected {
			return entries, nil
		}
		if time.Now().After(deadline) {
			return nil, &WrongEpochError{ClientEpoch: v.epoch}
		}
		c.repace(v.epoch)
	}
}

// scanOnce plans and executes one scan attempt under a fixed view.
func (c *Client) scanOnce(v routeView, from, to string, limit int) ([]Entry, bool, error) {
	parts := v.partitioner.PartitionsForRange(from, to)
	o := op{kind: opScan, epoch: v.epoch, key: from, to: to, limit: limit}
	gatherable := v.global != 0
	for _, p := range parts {
		if p >= len(v.onGlobal) || !v.onGlobal[p] {
			gatherable = false
		}
	}
	var raws []result
	if gatherable {
		// Every global-ring subscriber answers the multicast; only replies
		// from partitions in the scan's fan-out count toward the gather (a
		// merge can shrink the fan-out below the subscriber set, and an
		// uninvolved partition's empty reply must not satisfy it).
		involved := make(map[int]bool, len(parts))
		for _, p := range parts {
			involved[p] = true
		}
		results, err := c.smr.ExecuteGather(v.global, o.encode(), len(parts), func(raw []byte) (int, bool) {
			res, err := decodeResult(raw)
			if err != nil {
				return 0, false
			}
			return int(res.partition), involved[int(res.partition)]
		})
		if err != nil {
			return nil, false, err
		}
		for _, raw := range results {
			res, err := decodeResult(raw)
			if err != nil {
				return nil, false, err
			}
			raws = append(raws, res)
		}
	} else {
		for _, p := range parts {
			if p >= len(v.rings) {
				return nil, true, nil // view lags the partition set: refresh
			}
			res, err := c.exec(v.rings[p], o)
			if err != nil {
				return nil, false, err
			}
			raws = append(raws, res)
		}
	}
	var all []Entry
	for _, res := range raws {
		if res.status == statusWrongEpoch {
			return nil, true, nil
		}
		if res.status == statusError {
			return nil, false, fmt.Errorf("store: server error for scan")
		}
		for _, e := range res.entries {
			// Keep the owner's copy only: during a migration the frozen
			// source still reports moved keys, and the owner's reply is
			// the authoritative one.
			if v.partitioner.PartitionOf(e.Key) == int(res.partition) {
				all = append(all, e)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all, false, nil
}

// WriteBatch applies a batch of inserts grouped by partition: one atomic
// multicast per involved partition, each carrying all the batch's writes
// for that partition (the paper's clients batch small commands up to
// 32 KB per partition, Section 7.2). Groups redirected by a schema change
// are regrouped under the refreshed schema and retried. It returns the
// number of applied writes.
//
//mrp:ordered
func (c *Client) WriteBatch(entries []Entry) (int, error) {
	deadline := time.Now().Add(c.timeout)
	remaining := entries
	total := 0
	for len(remaining) > 0 {
		v := c.viewFor()
		byPart := make(map[int][]op)
		for _, e := range remaining {
			p := v.partitioner.PartitionOf(e.Key)
			byPart[p] = append(byPart[p], op{kind: opInsert, key: e.Key, value: e.Value})
		}
		var redirected []Entry
		for p, ops := range byPart {
			if p >= len(v.rings) {
				for _, o := range ops {
					redirected = append(redirected, Entry{Key: o.key, Value: o.value})
				}
				continue
			}
			res, err := c.exec(v.rings[p], op{kind: opBatch, epoch: v.epoch, batch: ops})
			if err != nil {
				if c.rerouteOnTimeout(err, v.epoch, deadline) {
					for _, o := range ops {
						redirected = append(redirected, Entry{Key: o.key, Value: o.value})
					}
					continue
				}
				return total, err
			}
			switch res.status {
			case statusOK:
				total += int(res.count)
			case statusWrongEpoch:
				for _, o := range ops {
					redirected = append(redirected, Entry{Key: o.key, Value: o.value})
				}
			default:
				return total, fmt.Errorf("store: server error for batch")
			}
		}
		remaining = redirected
		if len(remaining) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return total, &WrongEpochError{ClientEpoch: v.epoch}
		}
		c.repace(v.epoch)
	}
	return total, nil
}
