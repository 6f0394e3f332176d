// Package netsim implements an in-process simulated network with per-link
// one-way latency, bandwidth serialization delay, message loss, link
// blocking, and crash injection.
//
// The simulator substitutes for the paper's testbed (a 10 Gbps datacenter
// switch and Amazon EC2 WAN links across four regions, Section 8.1). The
// behaviour Multi-Ring Paxos is sensitive to — ring circulation time,
// merge stalls across groups, WAN latency floors, bandwidth ceilings — is a
// function of link latency and bandwidth, both of which are modeled here.
//
// Delivery model: each ordered (sender, receiver) pair is a link with a
// dedicated delivery goroutine, which runs the receiver's handler (see
// transport.Endpoint.Handle). A packet of size s sent at time t arrives
// at max(t, linkFree) + s/bandwidth + latency; linkFree advances by the
// serialization time, so a burst of large packets queues behind itself
// exactly as it would on a NIC. Messages on one link are delivered FIFO.
//
// Write coalescing: unless disabled by WithBatch, each sender runs a
// per-destination coalescing loop mirroring the TCP transport
// (internal/tcpnet): the queue backlog becomes one simulated packet whose
// bandwidth cost is the encoded msg.Batch size, so simulation and real
// sockets stay behaviorally aligned. Delivered envelopes always carry
// individual messages, exactly as tcpnet unpacks batches before delivery.
//
// Messages are passed by pointer without copying; see transport.Endpoint
// for the immutability convention.
package netsim

import (
	"math/rand"
	"strings"
	"sync"
	"time"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the one-way propagation delay function. The default is a
// uniform 50µs LAN (0.1 ms round trip, as in the paper's local cluster).
func WithLatency(f func(from, to transport.Addr) time.Duration) Option {
	return func(n *Network) { n.latency = f }
}

// WithUniformLatency sets a constant one-way delay for every link.
func WithUniformLatency(d time.Duration) Option {
	return WithLatency(func(_, _ transport.Addr) time.Duration { return d })
}

// WithBandwidth sets the per-link bandwidth in bytes per second
// (0 = infinite). The paper's local cluster used 10 Gbps NICs.
func WithBandwidth(bytesPerSec int64) Option {
	return func(n *Network) { n.bandwidth = bytesPerSec }
}

// WithJitter adds uniformly distributed extra delay in [0, frac*latency].
func WithJitter(frac float64) Option {
	return func(n *Network) { n.jitter = frac }
}

// WithSeed seeds the simulator's randomness (loss, jitter).
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithInboxSize sets the per-endpoint inbox buffer (default 4096).
func WithInboxSize(size int) Option {
	return func(n *Network) { n.inboxSize = size }
}

// WithBatch sets the write-coalescing policy applied by every endpoint's
// per-destination sender, mirroring tcpnet.WithBatch. The default is the
// zero transport.BatchPolicy: coalescing enabled within the transport's
// DefaultBatchBytes and DefaultBatchCount. Pass
// transport.BatchPolicy{Disabled: true} to model one packet per message
// (the paper's Figure 3 baseline).
func WithBatch(p transport.BatchPolicy) Option {
	return func(n *Network) { n.batch = p }
}

// WithMinSleep sets the shortest delay the simulator actually sleeps for.
// Delays below it are delivered immediately: OS timer granularity (often
// 1-4 ms in containers) makes shorter sleeps both inaccurate and far more
// expensive than the LAN latencies they would model. The default is 2.5 ms.
func WithMinSleep(d time.Duration) Option {
	return func(n *Network) { n.minSleep = d }
}

// Network is the simulated fabric. Create endpoints with Endpoint, then use
// them through the transport.Endpoint interface.
type Network struct {
	latency   func(from, to transport.Addr) time.Duration
	bandwidth int64
	jitter    float64
	inboxSize int
	minSleep  time.Duration
	batch     transport.BatchPolicy

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[transport.Addr]*Endpoint
	links     map[linkKey]*link
	blocked   map[linkKey]bool
	lossRate  map[linkKey]float64
	closed    bool
}

type linkKey struct {
	from, to transport.Addr
}

// New creates a simulated network.
func New(opts ...Option) *Network {
	n := &Network{
		latency:   func(_, _ transport.Addr) time.Duration { return 50 * time.Microsecond },
		inboxSize: 4096,
		minSleep:  2500 * time.Microsecond,
		rng:       rand.New(rand.NewSource(1)),
		endpoints: make(map[transport.Addr]*Endpoint),
		links:     make(map[linkKey]*link),
		blocked:   make(map[linkKey]bool),
		lossRate:  make(map[linkKey]float64),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Endpoint attaches a new endpoint with the given address. Attaching an
// address that already exists replaces the crashed instance (recovery):
// the old endpoint must have been closed first.
func (n *Network) Endpoint(addr transport.Addr) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.endpoints[addr]; ok && !old.isClosed() {
		panic("netsim: duplicate live endpoint " + string(addr))
	}
	ep := &Endpoint{net: n, addr: addr, recv: transport.NewReceiver(n.inboxSize)}
	n.endpoints[addr] = ep
	return ep
}

// BlockLink blocks or unblocks the directed link from→to (partition
// injection). Blocked messages are dropped.
func (n *Network) BlockLink(from, to transport.Addr, blocked bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if blocked {
		n.blocked[linkKey{from, to}] = true
	} else {
		delete(n.blocked, linkKey{from, to})
	}
}

// SetLoss sets the drop probability for the directed link from→to.
func (n *Network) SetLoss(from, to transport.Addr, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p <= 0 {
		delete(n.lossRate, linkKey{from, to})
	} else {
		n.lossRate[linkKey{from, to}] = p
	}
}

// Close shuts down the network and all endpoints.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	for _, l := range links {
		l.stop()
	}
}

// linkFor returns (creating if needed) the delivery link for (from, to).
func (n *Network) linkFor(from, to transport.Addr) *link {
	k := linkKey{from, to}
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[k]; ok {
		return l
	}
	l := &link{
		net:  n,
		to:   to,
		ch:   make(chan timedMsg, 1024),
		done: make(chan struct{}),
	}
	n.links[k] = l
	go l.run()
	return l
}

type timedMsg struct {
	arriveAt time.Time
	envs     []transport.Envelope // one coalesced packet, delivered in order
	ep       *Endpoint            // receiver instance resolved at send time (TCP-like:
	// messages in flight to a crashed process are lost, never delivered to
	// its recovered reincarnation)
}

// link delivers messages for one ordered (from, to) pair in FIFO order.
type link struct {
	net      *Network
	to       transport.Addr
	ch       chan timedMsg
	done     chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	linkFree time.Time
}

func (l *link) stop() {
	l.stopOnce.Do(func() { close(l.done) })
}

// enqueue computes the arrival time for a packet of the given encoded size
// and queues its envelopes for delivery to the given endpoint instance.
func (l *link) enqueue(envs []transport.Envelope, ep *Endpoint, size int, latency time.Duration) {
	now := time.Now()
	var tx time.Duration
	if l.net.bandwidth > 0 {
		tx = time.Duration(float64(size) / float64(l.net.bandwidth) * float64(time.Second))
	}
	l.mu.Lock()
	start := now
	if l.linkFree.After(start) {
		start = l.linkFree
	}
	depart := start.Add(tx)
	l.linkFree = depart
	l.mu.Unlock()
	arrive := depart.Add(latency)
	select {
	case l.ch <- timedMsg{arriveAt: arrive, envs: envs, ep: ep}:
	case <-l.done:
	}
}

func (l *link) run() {
	for {
		select {
		case tm := <-l.ch:
			if d := time.Until(tm.arriveAt); d > l.net.minSleep {
				timer := time.NewTimer(d)
				select {
				case <-timer.C:
				case <-l.done:
					timer.Stop()
					return
				}
			}
			for _, env := range tm.envs {
				tm.ep.recv.Deliver(env)
			}
		case <-l.done:
			return
		}
	}
}

// Endpoint is a node's attachment to the simulated network. Each link's
// goroutine delivers straight to the handler registered with Handle.
type Endpoint struct {
	net  *Network
	addr transport.Addr
	recv *transport.Receiver

	mu      sync.Mutex
	senders map[transport.Addr]chan queuedMsg // per-destination coalescers
}

// queuedMsg is one message waiting in a per-destination coalescing queue,
// with its receiver instance and latency resolved at Send time.
type queuedMsg struct {
	env transport.Envelope
	ep  *Endpoint
	lat time.Duration
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Addr implements transport.Endpoint.
func (e *Endpoint) Addr() transport.Addr { return e.addr }

// Inbox implements transport.Endpoint.
func (e *Endpoint) Inbox() <-chan transport.Envelope { return e.recv.Inbox() }

// Handle implements transport.Endpoint.
func (e *Endpoint) Handle(fn func(transport.Envelope)) { e.recv.Handle(fn) }

func (e *Endpoint) isClosed() bool { return e.recv.Closed() }

// Send implements transport.Endpoint.
func (e *Endpoint) Send(to transport.Addr, m msg.Message) error {
	if e.isClosed() {
		return transport.ErrClosed
	}
	n := e.net
	k := linkKey{e.addr, to}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	if n.blocked[k] {
		n.mu.Unlock()
		return nil // dropped by partition
	}
	if p := n.lossRate[k]; p > 0 && n.rng.Float64() < p {
		n.mu.Unlock()
		return nil // dropped by loss
	}
	dst, ok := n.endpoints[to]
	if !ok {
		n.mu.Unlock()
		return nil // unknown destination: dropped, as on a real network
	}
	lat := n.latency(e.addr, to)
	if n.jitter > 0 {
		lat += time.Duration(n.rng.Float64() * n.jitter * float64(lat))
	}
	n.mu.Unlock()
	env := transport.Envelope{From: e.addr, Msg: m}
	if n.batch.Disabled {
		l := n.linkFor(e.addr, to)
		l.enqueue([]transport.Envelope{env}, dst, m.Size(), lat)
		return nil
	}
	select {
	case e.senderFor(to) <- queuedMsg{env: env, ep: dst, lat: lat}:
		return nil
	case <-e.recv.Done():
		return transport.ErrClosed
	}
}

// senderFor returns (creating if needed) the coalescing queue for one
// destination.
func (e *Endpoint) senderFor(to transport.Addr) chan queuedMsg {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.senders == nil {
		e.senders = make(map[transport.Addr]chan queuedMsg)
	}
	ch, ok := e.senders[to]
	if !ok {
		ch = make(chan queuedMsg, 1024)
		e.senders[to] = ch
		go e.coalesceLoop(to, ch)
	}
	return ch
}

// coalesceLoop models transport-level write coalescing for one destination,
// mirroring tcpnet's sendLoop: the queue backlog present when a message is
// dequeued becomes one simulated packet whose bandwidth cost is the encoded
// msg.Batch size. Coalescing never delays a message — an empty queue sends
// immediately. A backlog message bound for a different receiver incarnation
// (the destination crashed and recovered mid-queue) flushes the current
// packet first, preserving per-incarnation delivery.
func (e *Endpoint) coalesceLoop(to transport.Addr, ch chan queuedMsg) {
	l := e.net.linkFor(e.addr, to)
	var carry *queuedMsg
	for {
		var q queuedMsg
		if carry != nil {
			q, carry = *carry, nil
		} else {
			select {
			case q = <-ch:
			case <-e.recv.Done():
				return
			}
		}
		envs := []transport.Envelope{q.env}
		// Track the would-be msg.Batch encoding exactly as tcpnet does:
		// the empty-batch envelope from BatchSize, plus a 4-byte size
		// prefix per packed message (matching Batch.marshal).
		size := msg.BatchSize(nil) + 4 + q.env.Msg.Size()
	drain:
		for len(envs) < transport.DefaultBatchCount {
			select {
			case q2 := <-ch:
				if q2.ep != q.ep || size+4+q2.env.Msg.Size() > transport.DefaultBatchBytes {
					carry = &q2
					break drain
				}
				envs = append(envs, q2.env)
				size += 4 + q2.env.Msg.Size()
			default:
				break drain
			}
		}
		if len(envs) == 1 {
			size = q.env.Msg.Size() // sent alone: no batch envelope on the wire
		}
		l.enqueue(envs, q.ep, size, q.lat)
	}
}

// Close implements transport.Endpoint. The endpoint's address becomes free
// for re-attachment (crash-recover). Close waits for the deliveries in
// progress, then closes the inbox, so consumers ranging over it exit.
func (e *Endpoint) Close() error {
	e.recv.Close()
	return nil
}

// Region extracts the "region/" prefix of a structured address, or "" when
// the address has none.
func Region(a transport.Addr) string {
	s := string(a)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i]
	}
	return ""
}

// EC2Latencies holds approximate one-way inter-region delays for the four
// Amazon EC2 regions used in the paper's horizontal-scalability experiment
// (Section 8.4.2): eu-west-1, us-east-1, us-west-1, us-west-2.
var EC2Latencies = map[[2]string]time.Duration{
	{"eu-west-1", "us-east-1"}: 40 * time.Millisecond,
	{"eu-west-1", "us-west-1"}: 70 * time.Millisecond,
	{"eu-west-1", "us-west-2"}: 65 * time.Millisecond,
	{"us-east-1", "us-west-1"}: 35 * time.Millisecond,
	{"us-east-1", "us-west-2"}: 32 * time.Millisecond,
	{"us-west-1", "us-west-2"}: 10 * time.Millisecond,
}

// WANLatency returns a latency function that charges intraRegion delay
// within a region and the EC2Latencies matrix across regions, scaled by
// scale (use scale < 1 to shrink wall-clock time while preserving ratios).
func WANLatency(intraRegion time.Duration, scale float64) func(from, to transport.Addr) time.Duration {
	return func(from, to transport.Addr) time.Duration {
		rf, rt := Region(from), Region(to)
		var d time.Duration
		if rf == rt {
			d = intraRegion
		} else if v, ok := EC2Latencies[[2]string{rf, rt}]; ok {
			d = v
		} else if v, ok := EC2Latencies[[2]string{rt, rf}]; ok {
			d = v
		} else {
			d = 50 * time.Millisecond // unknown pair: generic WAN
		}
		return time.Duration(float64(d) * scale)
	}
}
