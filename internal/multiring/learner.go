package multiring

import (
	"sort"
	"sync"

	"mrp/internal/msg"
	"mrp/internal/ringpaxos"
)

// Delivery is one atomically multicast message (or skip marker) handed to
// the application in the global deterministic-merge order.
//
// Batched instances are unpacked into one Delivery per entry; the last
// entry of an instance has EndOfInstance set, which is when a replica may
// advance its checkpoint tuple entry for the ring (Section 5.2: a
// checkpoint identified by tuple k_p reflects commands decided up to
// k[x]_p for each group x).
type Delivery struct {
	Ring          msg.RingID
	Instance      msg.Instance
	Skip          bool
	SkipTo        msg.Instance // exclusive upper bound of skipped range
	Entry         msg.Entry    // valid when !Skip
	EndOfInstance bool
}

// DecisionSource is what the learner consumes: an ordered, gap-free
// stream of decided instances for one ring. A source that is also a
// Pusher (*ringpaxos.Process) calls Learner.Push itself; Start pumps any
// other source's Decisions channel into Push.
type DecisionSource interface {
	Ring() msg.RingID
	Decisions() <-chan ringpaxos.Decided
}

// Pusher is a source that calls a sink with every decided instance.
type Pusher interface {
	SetSink(fn func(ringpaxos.Decided))
}

// SkipRequester is implemented by decision sources whose ring takes
// learner feedback for rate leveling (*ringpaxos.Process).
type SkipRequester interface {
	// RequestSkip asks the ring's coordinator to skip the ring forward
	// to the exclusive instance bound to. It must not block.
	RequestSkip(to msg.Instance)
}

// Learner merges the decision streams of the rings a node subscribes to
// using the paper's deterministic merge: rings are visited round-robin in
// ascending ring-identifier order, consuming M consensus instances from
// each before moving to the next. All learners subscribed to the same set
// of rings therefore deliver the exact same global sequence, which is what
// makes Multi-Ring Paxos an atomic multicast rather than a bundle of
// independent broadcasts.
//
// The merge is a call: a ring loop pushes each decided instance, and the
// push delivers, on that loop under the learner's mutex, all the merge
// can now consume; the order depends on the decided streams alone. A
// blocking deliver function (a transaction awaiting votes) blocks that
// loop, after it forwarded the decision, and every loop pushing
// meanwhile: a slow state machine slows the rings that feed it.
//
// The merge deliberately waits on a ring with no decided instances —
// replicas advance at the pace of the slowest subscribed group — which is
// why coordinators run rate leveling (skip instances) on idle rings; the
// other rings' decisions queue in the learner meanwhile.
type Learner struct {
	m int

	mu sync.Mutex
	// rings is in ascending ring ID; cur is the ring whose turn it is and
	// quota what that turn still owes (0 before the turn begins).
	rings   []ringState
	cur     int
	quota   uint64
	deliver func(Delivery)
	stopped bool

	out      chan Delivery
	pumps    sync.WaitGroup
	stopOnce sync.Once
	stop     chan struct{}
}

// ringState is the merge's position in one ring's decision stream.
type ringState struct {
	src   DecisionSource
	req   SkipRequester       // nil when src takes no learner feedback
	queue []ringpaxos.Decided // queue[head:] is pushed, not merged yet
	head  int
	// frontier is the highest instance the merge has consumed (inclusive;
	// skips advance it to SkipTo-1); 0 until it consumes the first one.
	frontier msg.Instance
	// carry counts instances the ring over-consumed in earlier turns (a
	// single skip decision can cover many instances).
	carry uint64
	// asked is the highest skip bound requested from the ring, so a
	// repeated stall does not resend the same request.
	asked msg.Instance
}

// NewLearner creates a deterministic-merge learner over the given ring
// decision sources (typically ring processes the node is a learner member
// of; NewLearner sets itself as their sink, so call it before they
// start). M is the number of consensus instances consumed per ring per
// round-robin turn (the paper's local experiments use M=1).
func NewLearner(m int, procs ...DecisionSource) *Learner {
	if m <= 0 {
		m = 1
	}
	l := &Learner{
		m:     m,
		rings: make([]ringState, len(procs)),
		out:   make(chan Delivery, 8192),
		stop:  make(chan struct{}),
	}
	l.deliver = l.emit
	for i, src := range procs {
		l.rings[i].src = src
		l.rings[i].req, _ = src.(SkipRequester)
		if p, ok := src.(Pusher); ok {
			p.SetSink(l.Push)
		}
	}
	sort.Slice(l.rings, func(i, j int) bool { return l.rings[i].src.Ring() < l.rings[j].src.Ring() })
	return l
}

// SetDeliver replaces Deliveries with fn, called under the learner's
// mutex (so never Push from it). Call it before the sources start.
func (l *Learner) SetDeliver(fn func(Delivery)) { l.deliver = fn }

// Deliveries returns the merged delivery stream, unless SetDeliver
// replaced it. A full stream blocks the pushers until read or Stop.
func (l *Learner) Deliveries() <-chan Delivery { return l.out }

// Start pumps every source that does not push into Push, one goroutine
// per source. Sources that push need nothing started.
func (l *Learner) Start() {
	for i := range l.rings {
		src := l.rings[i].src // fixed at NewLearner: read without l.mu
		if _, pushes := src.(Pusher); pushes {
			continue
		}
		l.pumps.Add(1)
		go func(ch <-chan ringpaxos.Decided) {
			defer l.pumps.Done()
			for {
				select {
				case d := <-ch:
					l.Push(d)
				case <-l.stop:
					return
				}
			}
		}(src.Decisions())
	}
}

// Stop drops later pushes and unblocks a full Deliveries stream.
func (l *Learner) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	l.pumps.Wait()
}

// Push hands the learner the next decided instance of ring d.Ring (in
// order, gap-free) and delivers everything the merge can consume now.
func (l *Learner) Push(d ringpaxos.Decided) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return
	}
	for i := range l.rings {
		r := &l.rings[i]
		if r.src.Ring() != d.Ring {
			continue
		}
		if r.head > 0 && len(r.queue) == cap(r.queue) {
			// Reuse the consumed prefix rather than grow.
			n := copy(r.queue, r.queue[r.head:])
			clear(r.queue[n:])
			r.queue, r.head = r.queue[:n], 0
		}
		r.queue = append(r.queue, d)
		l.merge()
		return
	}
}

// merge is the deterministic merge (Algorithm 1): every learner subscribed
// to the same rings with the same M consumes decisions in the same
// round-robin order, so the delivery sequence — the input to every
// replica's state machine — is identical across the group. It runs until
// the ring whose turn it is has nothing queued. TestLearnerMergeAllocationPin
// holds it allocation-free. Caller holds l.mu.
//
//mrp:deterministic
func (l *Learner) merge() {
	for {
		r := &l.rings[l.cur]
		if l.quota == 0 {
			l.quota = uint64(l.m)
			if r.carry >= l.quota {
				r.carry -= l.quota
				l.endTurn()
				continue
			}
			l.quota -= r.carry
			r.carry = 0
		}
		if r.head == len(r.queue) {
			// Wait on this ring, asking it to catch up; every later
			// push asks again, with the backlog it brings.
			l.stalled(l.cur)
			return
		}
		d := r.queue[r.head]
		r.queue[r.head] = ringpaxos.Decided{}
		if r.head++; r.head == len(r.queue) {
			r.queue, r.head = r.queue[:0], 0
		}
		consumed := l.consume(r, d)
		if consumed >= l.quota {
			r.carry = consumed - l.quota
			l.endTurn()
		} else {
			l.quota -= consumed
		}
	}
}

// endTurn passes the turn to the next ring.
func (l *Learner) endTurn() {
	l.quota = 0
	if l.cur++; l.cur == len(l.rings) {
		l.cur = 0
	}
}

// consume delivers one decided instance of ring r and returns how many
// instances it covers.
func (l *Learner) consume(r *ringState, d ringpaxos.Decided) uint64 {
	last := lastOf(d)
	if r.frontier < last {
		r.frontier = last
	}
	if d.Value.Skip || len(d.Value.Batch) == 0 {
		// A skip, or an empty decided value, still consumes its range.
		l.deliver(Delivery{Ring: d.Ring, Instance: d.Instance, Skip: true, SkipTo: last + 1, EndOfInstance: true})
	} else {
		for k := range d.Value.Batch {
			l.deliver(Delivery{Ring: d.Ring, Instance: d.Instance, Entry: d.Value.Batch[k], EndOfInstance: k == len(d.Value.Batch)-1})
		}
	}
	return uint64(last - d.Instance + 1)
}

// lastOf returns the last instance d covers.
func lastOf(d ringpaxos.Decided) msg.Instance {
	if d.Value.Skip && d.Value.SkipTo > d.Instance {
		return d.Value.SkipTo - 1
	}
	return d.Instance
}

// stalled is learner feedback, called while the merge waits on ring i.
// The merge consumes the rings in lockstep, so what another ring has
// queued but the merge has not consumed yet, plus what it over-supplied
// in earlier turns (its carry), cannot be delivered before the stalled
// ring supplies as many instances of its own. Rate leveling alone supplies
// them at the ring coordinator's next Δ tick; asking the coordinator for
// that many skipped instances now cuts the wait to one ring round. A ring
// not consumed from yet has no frontier to measure against and is left
// out. The request only moves when a skip is decided, never what is
// decided, so the merged order stays a pure function of the decided
// streams.
func (l *Learner) stalled(i int) {
	r := &l.rings[i]
	if r.req == nil {
		return
	}
	var backlog msg.Instance
	for j := range l.rings {
		o := &l.rings[j]
		if j == i || o.frontier == 0 {
			continue
		}
		ahead := msg.Instance(o.carry)
		if o.head < len(o.queue) && lastOf(o.queue[len(o.queue)-1]) > o.frontier {
			ahead += lastOf(o.queue[len(o.queue)-1]) - o.frontier
		}
		if ahead > backlog {
			backlog = ahead
		}
	}
	if backlog == 0 {
		return
	}
	to := r.frontier + 1 + backlog
	if to <= r.asked {
		return
	}
	r.asked = to
	r.req.RequestSkip(to)
}

// emit is the default deliver function: the Deliveries stream.
func (l *Learner) emit(d Delivery) {
	select {
	case l.out <- d:
	case <-l.stop:
	}
}
