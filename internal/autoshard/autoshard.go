// Package autoshard closes the loop the ROADMAP calls the auto-sharding
// policy: both directions of the reconfiguration mechanism exist
// (internal/rebalance splits, merges, and retires rings live), and this
// package decides when to use them. A controller samples every committed
// partition's load and size through the store's stats surface
// (store.Deployment.PartitionStats over the SM-side accounting), feeds the
// samples to a hysteresis policy, and drives the rebalance coordinator:
// a partition hot or oversized for long enough is split at the median key
// of its range (sampled through the ordinary scan path); a partition cold,
// small, and mergeable for long enough is merged into an adjacent survivor
// and its ring retired.
//
// # Hysteresis and the migration budget
//
// Reconfigurations are expensive exactly when the signal is noisiest, so
// the policy acts late and rests long: a threshold must be violated for
// ViolationTicks consecutive samples, every action starts a Cooldown
// during which nothing else is considered, and the two sides of a split
// are merge-protected for SplitProtect so a load spike's split cannot be
// un-split the moment the spike ends. The migration budget caps concurrent
// plans at one — actions run synchronously on the control loop — and
// rate-limits chunk copies (rebalance.Config.ChunkInterval) so a migration
// trickles between client commands instead of saturating the rings.
//
// # The controller lease
//
// Each tick a controller asks the deployment for its lease
// (store.Deployment.Lead), and only the holder samples and acts, so
// exactly one controller/coordinator is active per deployment; Stop
// resigns it. A controller taking the lease first runs the coordinator's
// ResolvePending, so a leader that died mid-plan leaves no frozen range
// behind: the plan is aborted (or rolled forward past its publish point)
// before the new leader's policy resumes.
package autoshard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mrp/internal/store"
)

// Reconfigurer is the slice of the rebalance coordinator the controller
// drives. rebalance.Coordinator implements it; tests substitute fakes.
type Reconfigurer interface {
	SplitPartition(src int, splitKey string) (int, error)
	MergePartitions(survivor, donor int) error
	ResolvePending() (*store.Plan, error)
}

// Config parametrizes a controller.
type Config struct {
	// Store is the deployment being watched (required).
	Store *store.Deployment
	// Rebalancer executes the policy's decisions (required); usually a
	// rebalance.Coordinator for the same deployment.
	Rebalancer Reconfigurer

	// Interval is the sampling tick (default 100ms).
	Interval time.Duration
	// SplitOpsPerSec marks a partition hot when its data-op rate exceeds
	// it (0 disables load-based splits).
	SplitOpsPerSec float64
	// SplitMaxKeys marks a partition oversized when its key count exceeds
	// it (0 disables size-based splits).
	SplitMaxKeys uint64
	// MinSplitKeys is the smallest partition worth splitting (default 16):
	// below it a median split moves nothing worth moving.
	MinSplitKeys uint64
	// MergeOpsPerSec marks a partition cold when its data-op rate stays
	// under it (0 disables merges).
	MergeOpsPerSec float64
	// MergeMaxKeys additionally requires a merge candidate to be small
	// (0 = any size).
	MergeMaxKeys uint64
	// ViolationTicks is how many consecutive samples must violate a
	// threshold before the policy acts (default 3).
	ViolationTicks int
	// Cooldown silences the policy after an action (default 10*Interval).
	Cooldown time.Duration
	// SplitProtect keeps both sides of a split out of merge candidacy
	// (default 2*Cooldown).
	SplitProtect time.Duration
	// MaxPartitions caps growth: no split beyond this many live
	// partitions (0 = unlimited). The budget's other half — one plan at a
	// time, rate-limited chunk copies — is structural (synchronous
	// actions) and the coordinator's ChunkInterval.
	MaxPartitions int
	// SampleChunk is the scan page size used to find the median key of a
	// hot partition (default 256).
	SampleChunk int
	// OnAction, when set, observes controller decisions and transitions
	// ("split 1 @user000875", "merge 2->1", "lead", ...) — benchmarks mark
	// them on a timeline.
	OnAction func(action string)
}

func (c *Config) withDefaults() error {
	if c.Store == nil {
		return errors.New("autoshard: nil store deployment")
	}
	if c.Rebalancer == nil {
		return errors.New("autoshard: nil rebalancer")
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.MinSplitKeys == 0 {
		c.MinSplitKeys = 16
	}
	if c.ViolationTicks <= 0 {
		c.ViolationTicks = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * c.Interval
	}
	if c.SplitProtect <= 0 {
		c.SplitProtect = 2 * c.Cooldown
	}
	if c.SampleChunk <= 0 {
		c.SampleChunk = 256
	}
	return nil
}

// Controller is the auto-sharding control loop.
type Controller struct {
	cfg    Config
	policy *policy
	client *store.Client

	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	leading bool
	splits  int
	merges  int
	// prevOps/prevAt are the previous tick's cumulative op counters, for
	// rate deltas.
	prevOps map[int]uint64
	prevAt  time.Time
}

// New creates a controller (not yet running; call Start).
func New(cfg Config) (*Controller, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:     cfg,
		policy:  newPolicy(cfg),
		client:  cfg.Store.NewClient(),
		prevOps: make(map[int]uint64),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	return c, nil
}

// Start launches the control loop.
func (c *Controller) Start() {
	go c.run()
}

// Stop terminates the control loop, resigns the lease and releases the
// controller's client.
func (c *Controller) Stop() {
	close(c.stop)
	<-c.done
	c.cfg.Store.Resign(c)
	c.mu.Lock()
	c.leading = false
	c.mu.Unlock()
	c.client.Close()
}

// Splits returns how many controller-initiated splits completed.
func (c *Controller) Splits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.splits
}

// Merges returns how many controller-initiated merges completed.
func (c *Controller) Merges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merges
}

// Leading reports whether this controller holds the lease and has
// resolved any plan its predecessor left.
func (c *Controller) Leading() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leading
}

func (c *Controller) act(format string, args ...any) {
	if c.cfg.OnAction != nil {
		c.cfg.OnAction(fmt.Sprintf(format, args...))
	}
}

func (c *Controller) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.tick(time.Now())
		}
	}
}

// tick is one pass of the control loop: confirm leadership, sample, let
// the policy decide, execute. Actions run synchronously here — the
// migration budget's one-plan-at-a-time cap is this loop's structure, not
// a semaphore.
func (c *Controller) tick(now time.Time) {
	if !c.checkLeadership(now) {
		return
	}
	loads, live := c.sample(now)
	if loads == nil {
		return
	}
	a := c.policy.observe(now, loads, live)
	switch a.Kind {
	case ActionSplit:
		c.runSplit(now, a)
	case ActionMerge:
		c.runMerge(now, a)
	}
}

// checkLeadership resolves the controller lease for this tick. On
// takeover the controller resolves any plan a dead leader left mid-flight
// before its own policy is allowed to act.
func (c *Controller) checkLeadership(now time.Time) bool {
	if !c.cfg.Store.Lead(c) {
		// Standby: forget streaks and rate baselines so a takeover starts
		// from fresh observations instead of stale ones.
		c.policy.reset()
		c.prevOps = make(map[int]uint64)
		return false
	}
	c.mu.Lock()
	was := c.leading
	c.mu.Unlock()
	if !was {
		// The takeover is complete only once the predecessor's orphaned
		// plan (if any) is resolved; leading stays false on failure so the
		// next tick retries the resolve — otherwise one transient error
		// would leave the recorded plan (and its frozen range) stuck
		// forever while this controller holds the lease.
		c.act("lease acquired")
		plan, err := c.cfg.Rebalancer.ResolvePending()
		if err != nil {
			c.act("resolve pending failed: %v", err)
			c.policy.failed(now)
			return false
		}
		if plan != nil {
			c.act("resolved predecessor %s plan (epoch %d, published %t)", plan.Kind, plan.Epoch, plan.Published)
			c.policy.failed(now) // settle through one cool-down before acting
		}
		c.mu.Lock()
		c.leading = true
		c.mu.Unlock()
	}
	return true
}

// sample reads every committed partition's stats and converts cumulative
// op counters to rates. The first tick (and the first tick after a
// takeover or a topology change for the affected partitions) only sets
// baselines. live counts the committed live partitions — including ones
// not sampled this tick — for the MaxPartitions growth bound.
func (c *Controller) sample(now time.Time) (loads []Load, live int) {
	d := c.cfg.Store
	part := d.Partitioner()
	rp, _ := part.(*store.RangePartitioner)
	if rp != nil {
		seen := make(map[int]bool)
		for _, a := range rp.Assignments() {
			if !seen[a] {
				seen[a] = true
				live++
			}
		}
	} else {
		live = part.N()
	}
	dt := now.Sub(c.prevAt).Seconds()
	prev := c.prevOps
	next := make(map[int]uint64)
	n := part.N()
	for p := 0; p < n; p++ {
		st, ok := d.PartitionStats(p)
		if !ok {
			continue // retired tombstone
		}
		next[p] = st.Ops
		before, had := prev[p]
		if !had || dt <= 0 {
			continue // no baseline yet
		}
		rate := 0.0
		if st.Ops >= before {
			rate = float64(st.Ops-before) / dt
		} // else: the sampled replica restarted (recovery); skip one delta
		mergeable := false
		if rp != nil && (d.GlobalRingID() == 0 || !d.PartitionOnGlobal(p)) {
			_, mergeable = mergeTarget(rp, p)
		}
		loads = append(loads, Load{
			Partition: p,
			OpsRate:   rate,
			Keys:      st.Keys,
			Bytes:     st.Bytes,
			Mergeable: mergeable,
		})
	}
	c.prevOps = next
	c.prevAt = now
	return loads, live
}

// runSplit executes a split decision: find the hot partition's median key
// and hand it to the coordinator.
func (c *Controller) runSplit(now time.Time, a Action) {
	key, err := c.medianKey(a.Partition)
	if err != nil {
		c.act("split %d: median key: %v", a.Partition, err)
		c.policy.failed(now)
		return
	}
	newPart, err := c.cfg.Rebalancer.SplitPartition(a.Partition, key)
	if err != nil {
		c.act("split %d @%s failed: %v", a.Partition, key, err)
		c.policy.failed(now)
		return
	}
	c.mu.Lock()
	c.splits++
	c.mu.Unlock()
	c.policy.acted(time.Now(), a, newPart)
	c.act("split %d @%s -> %d", a.Partition, key, newPart)
}

// runMerge executes a merge decision: the cold partition donates its range
// to an adjacent survivor and its ring is retired.
func (c *Controller) runMerge(now time.Time, a Action) {
	rp, ok := c.cfg.Store.Partitioner().(*store.RangePartitioner)
	if !ok {
		c.policy.failed(now)
		return
	}
	survivor, ok := mergeTarget(rp, a.Partition)
	if !ok {
		c.policy.failed(now)
		return
	}
	if err := c.cfg.Rebalancer.MergePartitions(survivor, a.Partition); err != nil {
		c.act("merge %d->%d failed: %v", a.Partition, survivor, err)
		c.policy.failed(now)
		return
	}
	c.mu.Lock()
	c.merges++
	c.mu.Unlock()
	c.policy.acted(time.Now(), a, 0)
	c.act("merge %d->%d", a.Partition, survivor)
}

// mergeTarget picks the adjacent survivor a donor partition would merge
// into: the owner of the slot neighboring one of the donor's slots.
func mergeTarget(rp *store.RangePartitioner, donor int) (int, bool) {
	assign := rp.Assignments()
	for i, a := range assign {
		if a != donor {
			continue
		}
		if i > 0 && assign[i-1] != donor {
			return assign[i-1], true
		}
		if i+1 < len(assign) && assign[i+1] != donor {
			return assign[i+1], true
		}
	}
	return 0, false
}

// medianKey finds the median key of a partition's range by paging through
// it with the ordinary client scan path, so the sampling load is the same
// kind of traffic any client generates (and is itself counted by the
// stats surface). The returned key lies strictly inside one of the
// partition's slots — a legal split boundary.
func (c *Controller) medianKey(p int) (string, error) {
	rp, ok := c.cfg.Store.Partitioner().(*store.RangePartitioner)
	if !ok {
		return "", fmt.Errorf("autoshard: split requires range partitioning, deployment uses %T", c.cfg.Store.Partitioner())
	}
	st, ok := c.cfg.Store.PartitionStats(p)
	if !ok || st.Keys == 0 {
		return "", fmt.Errorf("autoshard: no stats for partition %d", p)
	}
	target := st.Keys / 2
	if target == 0 {
		target = 1
	}
	bounds, assign := rp.Bounds(), rp.Assignments()
	var counted uint64
	for slot, owner := range assign {
		if owner != p {
			continue
		}
		lo := ""
		if slot > 0 {
			lo = bounds[slot-1]
		}
		hi := ""
		if slot < len(bounds) {
			hi = bounds[slot]
		}
		from := lo
		for {
			entries, err := c.client.Scan(from, hi, c.cfg.SampleChunk)
			if err != nil {
				return "", err
			}
			var last string
			owned := 0
			for _, e := range entries {
				if rp.PartitionOf(e.Key) != p {
					continue // the inclusive upper bound belongs to a neighbor
				}
				owned++
				last = e.Key
				counted++
				if counted >= target && e.Key > lo {
					return e.Key, nil
				}
			}
			if len(entries) < c.cfg.SampleChunk || owned == 0 {
				break // end of the slot
			}
			from = last + "\x00" // resume strictly after the last key
		}
	}
	return "", fmt.Errorf("autoshard: partition %d has no key strictly inside its range (counted %d of %d)", p, counted, st.Keys)
}
