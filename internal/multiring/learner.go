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
// stream of decided instances for one ring. *ringpaxos.Process implements
// it; tests may substitute replayed streams.
type DecisionSource interface {
	Ring() msg.RingID
	Decisions() <-chan ringpaxos.Decided
}

// Learner merges the decision streams of the rings a node subscribes to
// using the paper's deterministic merge: rings are visited round-robin in
// ascending ring-identifier order, consuming M consensus instances from
// each before moving to the next. All learners subscribed to the same set
// of rings therefore deliver the exact same global sequence, which is what
// makes Multi-Ring Paxos an atomic multicast rather than a bundle of
// independent broadcasts.
//
// The set of rings is fixed when the learner is built; a deployment grows
// by starting new replicas on new rings.
//
// The merge deliberately blocks on a ring with no decided instances —
// replicas advance at the pace of the slowest subscribed group — which is
// why coordinators run rate leveling (skip instances) on idle rings.
type Learner struct {
	m     int
	rings []ringState // ascending ring ID; after Start, owned by run
	out   chan Delivery
	// wake is signalled by every SkipRequester source when it queues a
	// decided instance, so a merge waiting on one ring notices another
	// ring's progress (see stalled).
	wake chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// ringState is the merge's position in one ring's decision stream.
type ringState struct {
	src DecisionSource
	req SkipRequester // nil when src takes no learner feedback
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
// of). M is the number of consensus instances consumed per ring per
// round-robin turn (the paper's local experiments use M=1).
func NewLearner(m int, procs ...DecisionSource) *Learner {
	if m <= 0 {
		m = 1
	}
	l := &Learner{
		m:     m,
		rings: make([]ringState, len(procs)),
		out:   make(chan Delivery, 8192),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i, src := range procs {
		l.rings[i].src = src
		if req, ok := src.(SkipRequester); ok {
			l.rings[i].req = req
			req.NotifyDecided(l.wake)
		}
	}
	sort.Slice(l.rings, func(i, j int) bool { return l.rings[i].src.Ring() < l.rings[j].src.Ring() })
	return l
}

// Deliveries returns the merged delivery stream.
func (l *Learner) Deliveries() <-chan Delivery { return l.out }

// Start launches the merge goroutine.
func (l *Learner) Start() {
	go l.run()
}

// Stop terminates the merge.
func (l *Learner) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}

// run is the deterministic merge (Algorithm 1): every learner subscribed
// to the same rings with the same M consumes decisions in the same
// round-robin order, so the delivery sequence — the input to every
// replica's state machine — is identical across the group. The merge loop
// runs once per delivered instance; TestLearnerMergeAllocationPin holds it
// allocation-free.
//
//mrp:deterministic
func (l *Learner) run() {
	defer close(l.done)
	if len(l.rings) == 0 {
		<-l.stop
		return
	}
	// A lone ring has nothing to catch up with (nil wake never fires).
	wake := l.wake
	if len(l.rings) < 2 {
		wake = nil
	}
	for {
		for i := range l.rings {
			r := &l.rings[i]
			quota := uint64(l.m)
			if r.carry >= quota {
				r.carry -= quota
				continue
			}
			quota -= r.carry
			r.carry = 0
			for quota > 0 {
				var d ringpaxos.Decided
				select {
				case d = <-r.src.Decisions():
				default:
					// The merge is about to block on this ring: ask its
					// coordinator to catch up with what the other rings
					// already decided, and ask again whenever one of them
					// decides more while the wait lasts.
					for waiting := true; waiting; {
						l.stalled(i)
						select {
						case d = <-r.src.Decisions():
							waiting = false
						case <-wake:
						case <-l.stop:
							return
						}
					}
				}
				consumed := uint64(1)
				if d.Value.Skip && d.Value.SkipTo > d.Instance {
					consumed = uint64(d.Value.SkipTo - d.Instance)
					if r.frontier < d.Value.SkipTo-1 {
						r.frontier = d.Value.SkipTo - 1
					}
					if !l.emit(Delivery{
						Ring:          d.Ring,
						Instance:      d.Instance,
						Skip:          true,
						SkipTo:        d.Value.SkipTo,
						EndOfInstance: true,
					}) {
						return
					}
				} else {
					if r.frontier < d.Instance {
						r.frontier = d.Instance
					}
					for k := range d.Value.Batch {
						if !l.emit(Delivery{
							Ring:          d.Ring,
							Instance:      d.Instance,
							Entry:         d.Value.Batch[k],
							EndOfInstance: k == len(d.Value.Batch)-1,
						}) {
							return
						}
					}
					if len(d.Value.Batch) == 0 {
						// An empty decided value (e.g. single-instance skip)
						// still consumes its instance slot.
						if !l.emit(Delivery{
							Ring:          d.Ring,
							Instance:      d.Instance,
							Skip:          true,
							SkipTo:        d.Instance + 1,
							EndOfInstance: true,
						}) {
							return
						}
					}
				}
				if consumed >= quota {
					r.carry = consumed - quota
					quota = 0
				} else {
					quota -= consumed
				}
			}
		}
	}
}

// SkipRequester is implemented by decision sources whose ring takes
// learner feedback for rate leveling (*ringpaxos.Process).
type SkipRequester interface {
	// Decided returns the highest instance queued on Decisions so far.
	Decided() msg.Instance
	// RequestSkip asks the ring's coordinator to skip the ring forward
	// to the exclusive instance bound to.
	RequestSkip(to msg.Instance)
	// NotifyDecided registers a channel signalled, without blocking,
	// every time an instance is queued on Decisions.
	NotifyDecided(ch chan<- struct{})
}

// stalled is learner feedback, called while the merge waits on ring i.
// The merge consumes the rings in lockstep, so what another ring has
// decided but the merge has not consumed yet, plus what it over-supplied
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
		if j == i || o.req == nil || o.frontier == 0 {
			continue
		}
		ahead := msg.Instance(o.carry)
		if d := o.req.Decided(); d > o.frontier {
			ahead += d - o.frontier
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

func (l *Learner) emit(d Delivery) bool {
	select {
	case l.out <- d:
		return true
	case <-l.stop:
		return false
	}
}
