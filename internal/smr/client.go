package smr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// ClientConfig parametrizes a client.
type ClientConfig struct {
	// ID must be unique across all clients and ring nodes (it doubles as
	// the proposer identity for coordinator-side deduplication, so IDs
	// must fit in 32 bits).
	ID uint64
	// Endpoint receives replica responses (the paper uses UDP here).
	Endpoint transport.Endpoint
	// Proposers lists, per ring, the addresses of ring members accepting
	// proposals. Requests are submitted to one of them and failed over to
	// the next on timeout.
	Proposers map[msg.RingID][]transport.Addr
	// RetryTimeout is how long to wait for a response before retrying
	// (default 100 ms).
	RetryTimeout time.Duration
	// Timeout bounds one Execute end to end (default 15 s).
	Timeout time.Duration
}

// ErrTimeout reports that a command did not complete within the deadline.
var ErrTimeout = errors.New("smr: request timed out")

// Client submits commands to a replicated service and waits for replica
// responses: the first response for single-partition commands, one
// response per partition for multi-partition commands such as range scans
// (paper Section 7.2). A Client is safe for concurrent use: every call
// proposes its own command under its own sequence number.
type Client struct {
	cfg ClientConfig

	mu           sync.Mutex
	seq          uint64
	leaseSeq     uint64
	pending      map[uint64]chan *msg.Response
	leasePending map[uint64]chan *msg.LeaseReply
	cursor       map[msg.RingID]int
	closed       bool

	stopOnce sync.Once
	stop     chan struct{}
}

// NewClient creates and starts a client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 100 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 15 * time.Second
	}
	c := &Client{
		cfg:          cfg,
		pending:      make(map[uint64]chan *msg.Response),
		leasePending: make(map[uint64]chan *msg.LeaseReply),
		cursor:       make(map[msg.RingID]int),
		stop:         make(chan struct{}),
	}
	cfg.Endpoint.Handle(c.handle)
	return c
}

// Close shuts the client down. It does not close the endpoint.
func (c *Client) Close() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		close(c.stop)
	})
}

// handle routes a replica's reply to the call waiting for it. It runs on
// the endpoint's receiving goroutines and never blocks; after Close no
// call waits, so every reply is dropped.
func (c *Client) handle(env transport.Envelope) {
	switch resp := env.Msg.(type) {
	case *msg.Response:
		if resp.ClientID != c.cfg.ID {
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.Seq]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- resp:
			default: // gather buffer full: extra duplicate, drop
			}
		}
	case *msg.LeaseReply:
		if resp.ClientID != c.cfg.ID {
			return
		}
		c.mu.Lock()
		ch := c.leasePending[resp.Seq]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- resp:
			default: // late duplicate, drop
			}
		}
	}
}

// SetProposers installs (or replaces) the proposer addresses of a ring at
// runtime. Elastic rebalancing adds rings while clients are live; a client
// refreshing its schema view uses this to learn the routes of partitions
// that did not exist when it was created.
func (c *Client) SetProposers(ring msg.RingID, addrs []transport.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Proposers == nil {
		c.cfg.Proposers = make(map[msg.RingID][]transport.Addr)
	}
	c.cfg.Proposers[ring] = append([]transport.Addr(nil), addrs...)
}

// proposerFor returns the ring's current proposer. Clients stick to one
// proposer (like the paper's Thrift connections) and fail over to the next
// only when a request times out (rotate=true), so a crashed proposer stops
// receiving traffic after one retry interval.
func (c *Client) proposerFor(ring msg.RingID, rotate bool) (transport.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := c.cfg.Proposers[ring]
	if len(addrs) == 0 {
		return "", fmt.Errorf("smr: no proposers for ring %d", ring)
	}
	if rotate {
		c.cursor[ring]++
	}
	return addrs[c.cursor[ring]%len(addrs)], nil
}

// Execute multicasts op to the group (ring) and returns the first replica
// response (single-partition command).
//
//mrp:ordered
func (c *Client) Execute(ring msg.RingID, op []byte) ([]byte, error) {
	results, err := c.execute(ring, op, 1, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		return r, nil
	}
	return nil, ErrTimeout
}

// ExecuteGather multicasts op and collects responses until classify has
// produced `want` distinct classes (e.g. one response per partition for a
// scan). classify returns the class of a result and whether it counts.
//
//mrp:ordered
func (c *Client) ExecuteGather(ring msg.RingID, op []byte, want int, classify func([]byte) (int, bool)) (map[int][]byte, error) {
	return c.execute(ring, op, want, classify)
}

// ID returns the client's unique identity (the ClientID its ordered
// commands carry).
func (c *Client) ID() uint64 { return c.cfg.ID }

// Reserve allocates the next command sequence number without submitting
// anything. A caller that must retry the SAME logical command — a
// cross-partition transaction whose first attempt timed out ambiguously —
// resubmits under the reserved number, and the replicas' per-client dedup
// bitmaps make the re-execution idempotent.
func (c *Client) Reserve() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.seq
}

// ExecuteGatherAt multicasts op under a previously Reserved sequence
// number to EVERY listed ring — the multi-ring proposal of a cross-
// partition command (paper Section 3): each participant's learner merges
// the ring it subscribes to, so one submission is delivered, in the same
// relative order, at every replica of every participant. Responses are
// gathered like ExecuteGather. Calling it again with the same seq (and
// the same op) is the ambiguous-timeout retry path; replicas that already
// executed the command answer from their dedup cache.
//
//mrp:ordered
func (c *Client) ExecuteGatherAt(seq uint64, rings []msg.RingID, op []byte, want int, classify func([]byte) (int, bool)) (map[int][]byte, error) {
	return c.executeAt(seq, rings, op, want, classify)
}

// LeaseRead asks the replica at addr to serve a read-only op from its
// applied state without ordering it (consensus-free local read; see
// lease.go). It returns served=false — with no error — when the replica
// declined (no active lease, frontier behind the grant, queue full) or no
// reply arrived within timeout; the caller is expected to fall back to
// the ordered path. A lease read is fire-once: there is no retry loop,
// because the fallback IS the retry.
func (c *Client) LeaseRead(addr transport.Addr, op []byte, timeout time.Duration) (result []byte, served bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, transport.ErrClosed
	}
	c.leaseSeq++
	seq := c.leaseSeq
	ch := make(chan *msg.LeaseReply, 1)
	c.leasePending[seq] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.leasePending, seq)
		c.mu.Unlock()
	}()
	if err := c.cfg.Endpoint.Send(addr, &msg.LeaseRead{
		ClientID: c.cfg.ID, Seq: seq, Op: op,
	}); err != nil {
		return nil, false, err
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case reply := <-ch:
		if !reply.OK {
			return nil, false, nil
		}
		return reply.Result, true, nil
	case <-deadline.C:
		return nil, false, nil
	case <-c.stop:
		return nil, false, transport.ErrClosed
	}
}

func (c *Client) execute(ring msg.RingID, op []byte, want int, classify func([]byte) (int, bool)) (map[int][]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, transport.ErrClosed
	}
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	return c.executeAt(seq, []msg.RingID{ring}, op, want, classify)
}

func (c *Client) executeAt(seq uint64, rings []msg.RingID, op []byte, want int, classify func([]byte) (int, bool)) (map[int][]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, transport.ErrClosed
	}
	ch := make(chan *msg.Response, want+8)
	c.pending[seq] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
	}()

	cmd := Command{ClientID: c.cfg.ID, Seq: seq, ReplyTo: c.cfg.Endpoint.Addr(), Op: op}
	payload := cmd.Encode()
	send := func(rotate bool) error {
		// First sends and retries carry the same proposal identity, so
		// the coordinator's (proposer, seq) dedup absorbs retransmissions.
		for _, ring := range rings {
			addr, err := c.proposerFor(ring, rotate)
			if err != nil {
				return err
			}
			if err := c.cfg.Endpoint.Send(addr, &msg.Proposal{
				Ring:       ring,
				ProposerID: msg.NodeID(c.cfg.ID),
				Seq:        seq,
				Payload:    payload,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := send(false); err != nil {
		return nil, err
	}

	results := make(map[int][]byte, want)
	deadline := time.NewTimer(c.cfg.Timeout)
	defer deadline.Stop()
	retry := time.NewTicker(c.cfg.RetryTimeout)
	defer retry.Stop()
	for {
		select {
		case resp := <-ch:
			if classify == nil {
				results[0] = resp.Result
				return results, nil
			}
			class, ok := classify(resp.Result)
			if !ok {
				continue
			}
			if _, dup := results[class]; !dup {
				results[class] = resp.Result
				if len(results) >= want {
					return results, nil
				}
			}
		case <-retry.C:
			if err := send(true); err != nil {
				return nil, err
			}
		case <-deadline.C:
			return nil, ErrTimeout
		case <-c.stop:
			return nil, transport.ErrClosed
		}
	}
}
