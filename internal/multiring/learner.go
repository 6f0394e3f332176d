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

// Activation names the logical point in the merged stream at which a
// subscription change takes effect: the first merge-round boundary after
// the learner has consumed instance Instance of ring Ring. Because the
// consumed frontier is a pure function of the delivered sequence, every
// learner that requests the same change with the same Activation splices
// the ring in (or out) at exactly the same position of the global order —
// even when the trigger instance is covered by a skip range (the frontier
// jumps over it, "skip-aligned" activation).
//
// The zero Activation (Ring == 0) takes effect at the next round boundary.
// That is only deterministic across learners if they cannot have diverged
// yet (e.g. a freshly built learner that has consumed nothing). For a
// running group of learners, callers must pick a trigger instance that no
// learner has consumed at request time — the rebalance coordinator does
// this by using the instance that decided the change command itself.
type Activation struct {
	Ring     msg.RingID
	Instance msg.Instance
}

// subChange is a pending Subscribe/Unsubscribe applied at round boundaries.
type subChange struct {
	src   DecisionSource // nil for unsubscribe
	ring  msg.RingID
	after Activation
}

// Learner merges the decision streams of the rings a node subscribes to
// using the paper's deterministic merge: rings are visited round-robin in
// ascending ring-identifier order, consuming M consensus instances from
// each before moving to the next. All learners subscribed to the same set
// of rings therefore deliver the exact same global sequence, which is what
// makes Multi-Ring Paxos an atomic multicast rather than a bundle of
// independent broadcasts.
//
// Subscriptions are dynamic: Subscribe and Unsubscribe splice a ring into
// or out of the rotation at an agreed Activation point, which is how a
// running deployment grows onto new rings (Section 5 of the paper: servers
// subscribe to any groups they are interested in).
//
// The merge deliberately blocks on a ring with no decided instances —
// replicas advance at the pace of the slowest subscribed group — which is
// why coordinators run rate leveling (skip instances) on idle rings.
type Learner struct {
	m   int
	out chan Delivery

	mu      sync.Mutex
	sources []DecisionSource // active set, owned by run(); mu guards Rings()
	pending []subChange
	// pub is the published copy of the merge's consumed frontier,
	// refreshed at round boundaries; Frontier() reads it. The merge's own
	// frontier map stays goroutine-local — determinism does not depend on
	// this copy, it only serves observers (lease catch-up waits, stats).
	pub  map[msg.RingID]msg.Instance
	kick chan struct{}
	// wake is signalled by every SkipRequester source when it queues a
	// decided instance, so a merge waiting on one ring notices another
	// ring's progress (see stalled).
	wake chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewLearner creates a deterministic-merge learner over the given ring
// decision sources (typically ring processes the node is a learner member
// of); it may start empty and be populated with Subscribe. M is the number
// of consensus instances consumed per ring per round-robin turn (the
// paper's local experiments use M=1).
func NewLearner(m int, procs ...DecisionSource) *Learner {
	if m <= 0 {
		m = 1
	}
	sources := append([]DecisionSource(nil), procs...)
	sort.Slice(sources, func(i, j int) bool { return sources[i].Ring() < sources[j].Ring() })
	l := &Learner{
		m:       m,
		sources: sources,
		out:     make(chan Delivery, 8192),
		pub:     make(map[msg.RingID]msg.Instance),
		kick:    make(chan struct{}, 1),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, src := range sources {
		l.watch(src)
	}
	return l
}

// watch registers the learner's wake channel with a source that takes
// learner feedback.
func (l *Learner) watch(src DecisionSource) {
	if req, ok := src.(SkipRequester); ok {
		req.NotifyDecided(l.wake)
	}
}

// Deliveries returns the merged delivery stream.
func (l *Learner) Deliveries() <-chan Delivery { return l.out }

// Rings returns the currently active ring identifiers in merge order.
func (l *Learner) Rings() []msg.RingID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]msg.RingID, len(l.sources))
	for i, s := range l.sources {
		out[i] = s.Ring()
	}
	return out
}

// Frontier returns the merge's consumed frontier — per subscribed ring,
// the highest instance the deterministic merge has taken in (inclusive;
// skip ranges advance it), as of the last round boundary. This is the
// applied-frontier position lease machinery and recovery waits observe:
// everything at or below it has been emitted toward the replica (though
// the replica may still be draining the Deliveries buffer). Ordered by
// ring ID.
func (l *Learner) Frontier() []msg.RingInstance {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]msg.RingInstance, 0, len(l.pub))
	for ring, inst := range l.pub {
		out = append(out, msg.RingInstance{Ring: ring, Instance: inst})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ring < out[j].Ring })
	return out
}

// Subscribe splices src into the deterministic merge once the Activation
// point is reached (see Activation for the determinism contract). It may be
// called before or after Start, and on a learner that currently has no
// sources.
func (l *Learner) Subscribe(src DecisionSource, after Activation) {
	l.enqueue(subChange{src: src, ring: src.Ring(), after: after})
}

// Unsubscribe removes the ring from the merge once the Activation point is
// reached. Instances of the ring already consumed are still delivered;
// nothing is consumed from it afterwards.
func (l *Learner) Unsubscribe(ring msg.RingID, after Activation) {
	l.enqueue(subChange{ring: ring, after: after})
}

func (l *Learner) enqueue(c subChange) {
	l.mu.Lock()
	l.pending = append(l.pending, c)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

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
	// frontier[r] is the highest instance of ring r the merge has consumed
	// (inclusive; skips advance it to SkipTo-1). carry[r] counts instances
	// ring r over-consumed in earlier turns (a single skip decision can
	// cover many instances).
	frontier := make(map[msg.RingID]msg.Instance)
	carry := make(map[msg.RingID]uint64)
	// asked[r] is the highest skip bound requested from ring r, so a
	// repeated stall does not resend the same request.
	asked := make(map[msg.RingID]msg.Instance)
	for {
		l.applyPending(frontier, carry, asked)
		// l.sources is mutated only by applyPending, on this goroutine, so
		// the rotation can be walked without copying it per round (the
		// mutex only orders those writes with Rings()'s reads).
		if len(l.sources) == 0 {
			select {
			case <-l.kick:
				continue
			case <-l.stop:
				return
			}
		}
		for _, src := range l.sources {
			ring := src.Ring()
			quota := uint64(l.m)
			if carry[ring] >= quota {
				carry[ring] -= quota
				continue
			}
			quota -= carry[ring]
			carry[ring] = 0
			for quota > 0 {
				var d ringpaxos.Decided
				select {
				case d = <-src.Decisions():
				default:
					// The merge is about to block on this ring: ask its
					// coordinator to catch up with what the other rings
					// already decided, and ask again whenever one of them
					// decides more while the wait lasts. A lone ring has
					// nothing to catch up with (nil wake never fires).
					wake := l.wake
					if len(l.sources) < 2 {
						wake = nil
					}
					for waiting := true; waiting; {
						l.stalled(src, frontier, carry, asked)
						select {
						case d = <-src.Decisions():
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
					if frontier[ring] < d.Value.SkipTo-1 {
						frontier[ring] = d.Value.SkipTo - 1
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
					if frontier[ring] < d.Instance {
						frontier[ring] = d.Instance
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
					carry[ring] = consumed - quota
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

// stalled is learner feedback, called while the merge waits on src's ring.
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
func (l *Learner) stalled(src DecisionSource, frontier map[msg.RingID]msg.Instance, carry map[msg.RingID]uint64, asked map[msg.RingID]msg.Instance) {
	req, ok := src.(SkipRequester)
	if !ok {
		return
	}
	var backlog msg.Instance
	for _, s := range l.sources {
		o, ok := s.(SkipRequester)
		if !ok || s == src {
			continue
		}
		f, consumed := frontier[s.Ring()]
		if !consumed {
			continue
		}
		ahead := msg.Instance(carry[s.Ring()])
		if d := o.Decided(); d > f {
			ahead += d - f
		}
		if ahead > backlog {
			backlog = ahead
		}
	}
	if backlog == 0 {
		return
	}
	ring := src.Ring()
	to := frontier[ring] + 1 + backlog
	if to <= asked[ring] {
		return
	}
	asked[ring] = to
	req.RequestSkip(to)
}

// applyPending activates subscription changes whose trigger instance has
// been consumed. It runs only at round boundaries, so every learner that
// issued the same requests mutates its rotation at the same position of
// the merged sequence.
func (l *Learner) applyPending(frontier map[msg.RingID]msg.Instance, carry map[msg.RingID]uint64, asked map[msg.RingID]msg.Instance) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Publish the consumed frontier for Frontier() readers while the lock
	// is held anyway (once per merge round, into a reused map).
	for ring, inst := range frontier {
		l.pub[ring] = inst
	}
	if len(l.pending) == 0 {
		return
	}
	var remain []subChange
	for _, c := range l.pending {
		if c.after.Ring != 0 && frontier[c.after.Ring] < c.after.Instance {
			remain = append(remain, c)
			continue
		}
		if c.src != nil {
			l.watch(c.src)
			replaced := false
			for i, s := range l.sources {
				if s.Ring() == c.ring {
					l.sources[i] = c.src
					replaced = true
					break
				}
			}
			if !replaced {
				l.sources = append(l.sources, c.src)
				sort.Slice(l.sources, func(i, j int) bool {
					return l.sources[i].Ring() < l.sources[j].Ring()
				})
			}
		} else {
			for i, s := range l.sources {
				if s.Ring() == c.ring {
					l.sources = append(l.sources[:i], l.sources[i+1:]...)
					break
				}
			}
			delete(frontier, c.ring)
			delete(carry, c.ring)
			delete(asked, c.ring)
			delete(l.pub, c.ring)
		}
	}
	l.pending = remain
}

func (l *Learner) emit(d Delivery) bool {
	select {
	case l.out <- d:
		return true
	case <-l.stop:
		return false
	}
}
