// Package rebalance implements bidirectional elasticity for MRP-Store: an
// ordered reconfiguration engine that repartitions a live deployment with
// zero downtime and no consistency loss — the growth and shrink paths
// behind the paper's scalability claim (Sections 5 and 7.2: the system
// grows onto additional rings, and services are repartitioned across them;
// the paper keeps the partitioning schema in Zookeeper, here it is
// replicated state that every replica carries in its snapshots). Here
// growth means new replicas on new rings: a replica's rings are fixed
// when it starts, so a split provisions fresh replicas for its new ring
// and a merge stops the donor's replicas.
//
// # The reconfiguration engine
//
// Every topology change is one store.Plan executed in ordered phases:
//
//  1. Provision — (splits) build the destination partition's replicas on a
//     ring from the allocator (recycling retired ring IDs); each joins the
//     new ring before it starts, like every replica (internal/cluster).
//     Their state machines start "warming": they reject every client
//     command. Merges skip this phase — their destination already serves.
//  2. Prepare — ordered opPrepareReconfig commands freeze the donor side
//     at one logical point of the delivery order: a split freezes the
//     moved range [splitKey, hi) and installs the post-split mapping on
//     every replica of the ordering ring; a merge first arms the survivor
//     to accept migrate chunks (destination prepare on its ring), then
//     freezes the donor's whole range (donor prepare on its ring). The
//     frozen entries come back with the donor's reply.
//  3. Copy — the frozen entries are streamed in chunks as opMigrate
//     commands on the destination's ring, replicating them through
//     consensus to all destination replicas.
//  4. Activate — (splits) an opActivatePart command on the new ring,
//     ordered after every chunk, ends warming: any replica that serves a
//     client command has installed the complete range first. A merge's
//     activation is its commit (below), ordered the same way.
//  5. Publish — the deployment adopts the new partitioner/epoch, but only
//     over the epoch the plan started from, so a concurrent publisher is
//     detected instead of overwritten (store.Deployment.AdoptReconfig).
//     Clients refresh from the deployment before their next attempt;
//     stale ones keep self-correcting via redirects.
//  6. Commit — an ordered opCommitReconfig flips ownership: a split's
//     source drops the moved range; a merge's survivor adopts the merged
//     mapping — the donor's partition index falls out of the assignment
//     without renumbering anyone — and starts serving the donor's range.
//  7. Teardown — (merges) the drained donor ring is retired cluster-wide:
//     every donor replica stops, and the ring ID returns to the allocator
//     for the next split to recycle (store.Deployment.RetirePartition).
//
// Between Prepare and Commit, commands on the frozen range are redirected
// and retried by the client (a freeze window proportional to the moved
// data, not downtime: every command eventually succeeds and all other
// ranges are served throughout). No client op is lost and no stale value
// is served: writes to the frozen range are impossible while frozen, and
// reads are only served by the new owner after it holds the full range.
//
// # Ordered abort
//
// The inverse of Prepare is the ordered opAbortReconfig command: replicas
// holding pending state at the aborted epoch restore the pre-prepare
// mapping, unfreeze frozen ranges, and drop half-transferred entries;
// everyone else treats it as an idempotent duplicate. A failure during
// copy or activation therefore rolls the whole plan back instead of
// leaving the range frozen forever. Before its first ordered command the
// engine records the plan on the deployment (store.Deployment.RecordPlan);
// a coordinator that dies between prepare and commit is recovered by a
// successor calling ResolvePending, which aborts an uncommitted plan (or
// rolls a published one forward). Picking that successor automatically is
// the auto-sharding controller's lease (internal/autoshard): the leading
// controller drives exactly one coordinator, and a takeover runs
// ResolvePending before the policy resumes.
//
// # Crash recovery of replicas
//
// Committed partitions — seed, split-born, and merge survivors alike —
// recover through store.Deployment.RecoverReplica, which derives ring
// membership from the schema. Because every schema transition (prepare,
// commit, abort) is an ordered command, a replica replaying its ring
// reproduces the exact same state — including a prepare that was later
// aborted. Only a provisioned-but-uncommitted partition is unrecoverable:
// its membership is not part of any schema yet; roll it back with
// ResolvePending (or store.Deployment.RemovePartition).
package rebalance

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mrp/internal/msg"
	"mrp/internal/store"
)

// Config parametrizes a rebalance coordinator.
type Config struct {
	// Store is the deployment to rebalance. It also holds the plan in
	// flight, so any coordinator of the deployment can resolve a crashed
	// one.
	Store *store.Deployment
	// ChunkInterval, when > 0, pauses between consecutive migrate chunks —
	// the migration budget's rate limit: a large range copy trickles onto
	// the destination ring instead of saturating it, so client commands
	// keep interleaving with the migration. The freeze window grows
	// accordingly; frozen-range commands retry until the commit either
	// way.
	ChunkInterval time.Duration
	// OnStep, when set, observes protocol steps ("prepare", "copy", ...)
	// as they complete; benchmarks mark them on a metrics.Timeline.
	OnStep func(step string)
}

// Coordinator orders online repartitioning commands for one deployment.
// At most one plan runs at a time (the deployment's adopt fence rejects a
// concurrent coordinator's publish).
type Coordinator struct {
	cfg Config

	mu     sync.Mutex
	client *store.Client
	splits int
	merges int
	aborts int

	// failpoint, when set (tests), is consulted after each completed step;
	// returning an error injects a failure there, and errCrash simulates
	// the coordinator process dying on the spot (no abort runs).
	failpoint func(step string) error
}

// errCrash is the test failpoint's "the coordinator process died here"
// signal: the engine returns immediately without running its abort path,
// leaving the plan recorded for ResolvePending.
var errCrash = errors.New("rebalance: simulated coordinator crash")

// CrashAfter arms a one-shot simulated coordinator crash: the next plan
// returns mid-protocol after the named step completes, without running its
// abort path, leaving the plan recorded for a successor's ResolvePending.
// It exists for failover tests of packages built on the coordinator (the
// auto-sharding controller kills its leader mid-plan this way); production
// code has no reason to call it.
func (c *Coordinator) CrashAfter(step string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failpoint = func(s string) error {
		if s == step {
			c.failpoint = nil
			return errCrash
		}
		return nil
	}
}

// New creates a coordinator for the deployment.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, errors.New("rebalance: nil store deployment")
	}
	return &Coordinator{cfg: cfg, client: cfg.Store.NewClient()}, nil
}

// Close releases the coordinator's admin client.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.client.Close()
}

// Splits returns how many splits completed.
func (c *Coordinator) Splits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.splits
}

// Merges returns how many merges completed.
func (c *Coordinator) Merges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merges
}

// Aborts returns how many plans were rolled back with the ordered abort.
func (c *Coordinator) Aborts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aborts
}

// step reports a completed protocol step and consults the test failpoint.
func (c *Coordinator) step(s string) error {
	if c.cfg.OnStep != nil {
		c.cfg.OnStep(s)
	}
	if c.failpoint != nil {
		return c.failpoint(s)
	}
	return nil
}

// orderingRing returns the ring that orders a partition's reconfiguration
// commands: the global ring when the deployment has one and the partition
// subscribes to it, so every partition applies the change at the same
// logical point of the merged delivery order; a partition off the global
// ring (born from a split) orders them through its own ring — other
// partitions' ownership is unaffected, so that is sufficient.
func (c *Coordinator) orderingRing(p int) msg.RingID {
	d := c.cfg.Store
	via := d.GlobalRingID()
	if via == 0 || !d.PartitionOnGlobal(p) {
		via = d.PartitionRing(p)
	}
	return via
}

// checkNoPending refuses to start a plan while an unresolved plan is
// recorded — a crashed or abort-failed predecessor. Starting anyway would
// overwrite the record, making the stuck plan (and its frozen range)
// unrecoverable.
func (c *Coordinator) checkNoPending() error {
	if p, ok := c.cfg.Store.PendingPlan(); ok {
		return fmt.Errorf("rebalance: unresolved %s reconfiguration at epoch %d (published %t); run ResolvePending first",
			p.Kind, p.Epoch, p.Published)
	}
	return nil
}

// SplitPartition splits the key range [splitKey, hi) out of partition src
// into a new partition on a new ring, live. It returns the new partition's
// index. The deployment must be range-partitioned.
func (c *Coordinator) SplitPartition(src int, splitKey string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.cfg.Store

	if err := c.checkNoPending(); err != nil {
		return 0, err
	}
	cur, ok := d.Partitioner().(*store.RangePartitioner)
	if !ok {
		return 0, fmt.Errorf("rebalance: split requires range partitioning, deployment uses %T", d.Partitioner())
	}
	if src < 0 || src >= cur.N() {
		return 0, fmt.Errorf("rebalance: no partition %d", src)
	}
	if cur.PartitionOf(splitKey) != src {
		return 0, fmt.Errorf("rebalance: split key %q is owned by partition %d, not %d",
			splitKey, cur.PartitionOf(splitKey), src)
	}
	epoch := d.Epoch() + 1
	newPart := cur.N()
	next, err := cur.Split(splitKey, newPart)
	if err != nil {
		return 0, err
	}
	plan := &store.Plan{
		Kind: store.PlanSplit, Epoch: epoch, Donor: src, Dest: newPart,
		SplitKey: splitKey, DonorVia: c.orderingRing(src), Prev: cur,
	}

	// 1. Provision the new partition's replicas on a ring from the
	// allocator (recycling retired ring IDs before minting new ones).
	ring, addrs, err := d.AddPartition(next, newPart, epoch)
	if err != nil {
		return 0, err
	}
	plan.DestRing = ring
	plan.Provisioned = true
	c.client.AddRoute(ring, addrs)
	d.RecordPlan(*plan)
	if err := c.step("provision"); err != nil {
		return 0, c.failed(plan, "provision", err)
	}

	if err := c.runSplit(plan, next); err != nil {
		return 0, err
	}
	c.splits++
	return newPart, nil
}

// runSplit executes the ordered phases of a recorded split plan.
func (c *Coordinator) runSplit(plan *store.Plan, next store.Partitioner) error {
	via, ring := plan.DonorVia, plan.DestRing

	// 2. Prepare: freeze and collect the moved range. The command carries
	// the authoritative post-split mapping: replicas install it instead of
	// deriving it from views that reconfigurations on other rings may have
	// left stale. A lease revocation is ordered on the same ring first so
	// no read lease granted against the pre-freeze state spans the freeze.
	if err := c.client.RevokeLease(via); err != nil {
		return c.failed(plan, "prepare", err)
	}
	moved, err := c.client.PrepareSplit(via, plan.Donor, plan.SplitKey, plan.Dest, plan.Epoch, next)
	if err != nil {
		return c.failed(plan, "prepare", err)
	}
	if err := c.step("prepare"); err != nil {
		return c.failed(plan, "prepare", err)
	}

	// 3. Copy the range onto the new ring, chunked.
	if err := c.copyChunks(ring, plan.Dest, plan.Epoch, moved); err != nil {
		return c.failed(plan, "copy", err)
	}
	if err := c.step("copy"); err != nil {
		return c.failed(plan, "copy", err)
	}

	// 4. Activate the new partition.
	if err := c.client.ActivatePartition(ring, plan.Dest, plan.Epoch); err != nil {
		return c.failed(plan, "activate", err)
	}
	if err := c.step("activate"); err != nil {
		return c.failed(plan, "activate", err)
	}

	// 5. Publish: the deployment adopts the new schema.
	if err := c.publish(plan, next); err != nil {
		return c.failed(plan, "publish", err)
	}
	if err := c.step("publish"); err != nil {
		return c.failed(plan, "publish", err)
	}

	// 6. Commit: flip ownership and drop the frozen range at the source.
	if err := c.client.CommitSplit(via, plan.Donor, plan.Epoch); err != nil {
		return fmt.Errorf("rebalance: commit: %w (schema already adopted; resolve with ResolvePending)", err)
	}
	if err := c.step("commit"); err != nil && !errors.Is(err, errCrash) {
		return err
	}
	c.cfg.Store.ClearPlan()
	return nil
}

// MergePartitions streams partition donor into the adjacent partition
// survivor, live, then retires the donor's ring: the inverse of
// SplitPartition. The donor's index drops out of the adopted assignment
// without renumbering any surviving partition, and its ring ID returns to
// the allocator for the next split to recycle. The donor must not
// subscribe to the global ring (its nodes are torn down whole; partitions
// born from a split never subscribe, and deployments without a global ring
// are unrestricted).
func (c *Coordinator) MergePartitions(survivor, donor int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.cfg.Store

	if err := c.checkNoPending(); err != nil {
		return err
	}
	cur, ok := d.Partitioner().(*store.RangePartitioner)
	if !ok {
		return fmt.Errorf("rebalance: merge requires range partitioning, deployment uses %T", d.Partitioner())
	}
	next, err := cur.Merge(donor, survivor)
	if err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	if d.GlobalRingID() != 0 && d.PartitionOnGlobal(donor) {
		return fmt.Errorf("rebalance: donor partition %d subscribes to the global ring; only partitions off it (e.g. born from a split) can be merged away", donor)
	}
	epoch := d.Epoch() + 1
	plan := &store.Plan{
		Kind: store.PlanMerge, Epoch: epoch, Donor: donor, Dest: survivor,
		DonorVia: d.PartitionRing(donor), DestRing: d.PartitionRing(survivor), Prev: cur,
	}
	d.RecordPlan(*plan)

	if err := c.runMerge(plan, next); err != nil {
		return err
	}
	c.merges++
	return nil
}

// runMerge executes the ordered phases of a recorded merge plan.
func (c *Coordinator) runMerge(plan *store.Plan, next store.Partitioner) error {
	d := c.cfg.Store
	donorRing, destRing := plan.DonorVia, plan.DestRing

	// 2a. Prepare the survivor: arm it to accept epoch-tagged chunks. As
	// with a split, each prepare is preceded by a lease revocation ordered
	// on its own ring, so neither side's read lease spans the freeze.
	if err := c.client.RevokeLease(destRing); err != nil {
		return c.failed(plan, "prepare", err)
	}
	if err := c.client.PrepareMergeDest(destRing, plan.Donor, plan.Dest, plan.Epoch); err != nil {
		return c.failed(plan, "prepare", err)
	}
	// 2b. Prepare the donor: freeze its whole range and collect it.
	if err := c.client.RevokeLease(donorRing); err != nil {
		return c.failed(plan, "prepare", err)
	}
	moved, err := c.client.PrepareMergeDonor(donorRing, plan.Donor, plan.Dest, plan.Epoch)
	if err != nil {
		return c.failed(plan, "prepare", err)
	}
	if err := c.step("prepare"); err != nil {
		return c.failed(plan, "prepare", err)
	}

	// 3. Copy the donor's range onto the survivor's ring, chunked.
	if err := c.copyChunks(destRing, plan.Dest, plan.Epoch, moved); err != nil {
		return c.failed(plan, "copy", err)
	}
	if err := c.step("copy"); err != nil {
		return c.failed(plan, "copy", err)
	}

	// 5. Publish: the deployment adopts the post-merge schema. (A merge
	// has no separate activation: the commit below, ordered on the
	// survivor's ring behind every chunk, plays that role.)
	if err := c.publish(plan, next); err != nil {
		return c.failed(plan, "publish", err)
	}
	if err := c.step("publish"); err != nil {
		return c.failed(plan, "publish", err)
	}

	// 6. Commit: the survivor adopts the merged mapping (carried with the
	// command) and serves the donor's range; the donor stays frozen until
	// its teardown.
	if err := c.client.CommitMerge(destRing, plan.Donor, plan.Dest, plan.Epoch, next); err != nil {
		return fmt.Errorf("rebalance: commit: %w (schema already adopted; resolve with ResolvePending)", err)
	}
	if err := c.step("commit"); err != nil && !errors.Is(err, errCrash) {
		return err
	}

	// 7. Teardown: retire the drained donor ring cluster-wide.
	if err := d.RetirePartition(plan.Donor); err != nil {
		return fmt.Errorf("rebalance: retire: %w (merge committed; resolve with ResolvePending)", err)
	}
	if err := c.step("retire"); err != nil && !errors.Is(err, errCrash) {
		return err
	}
	c.cfg.Store.ClearPlan()
	return nil
}

// publish has the deployment adopt the plan's schema over the epoch the
// plan started from, and records the plan as published. A refused adopt
// means another publisher advanced the schema first.
func (c *Coordinator) publish(plan *store.Plan, next store.Partitioner) error {
	if !c.cfg.Store.AdoptReconfig(plan.Epoch, next) {
		return fmt.Errorf("concurrent schema publisher detected (deployment no longer at epoch %d)", plan.Epoch-1)
	}
	plan.Published = true
	c.cfg.Store.RecordPlan(*plan)
	return nil
}

// chunkEntries bounds how many entries one migration command carries (the
// paper's clients batch commands the same way, Section 7.2).
const chunkEntries = 256

// copyChunks streams the frozen entries to the destination ring, pacing
// consecutive chunks by the configured migration budget.
func (c *Coordinator) copyChunks(ring msg.RingID, dest int, epoch uint64, moved []store.Entry) error {
	for lo := 0; lo < len(moved); lo += chunkEntries {
		if lo > 0 && c.cfg.ChunkInterval > 0 {
			time.Sleep(c.cfg.ChunkInterval)
		}
		hi := lo + chunkEntries
		if hi > len(moved) {
			hi = len(moved)
		}
		if err := c.client.MigrateChunk(ring, dest, epoch, moved[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// failed handles a phase failure: a simulated coordinator crash returns
// immediately (the plan stays recorded for ResolvePending); every real
// failure between prepare and commit is routed through the ordered abort,
// so the frozen range unfreezes and orphaned state is removed instead of
// being left half-applied.
func (c *Coordinator) failed(plan *store.Plan, phase string, err error) error {
	if errors.Is(err, errCrash) {
		return err
	}
	if aerr := c.abortPlan(plan); aerr != nil {
		return fmt.Errorf("rebalance: %s: %w (abort also failed: %v)", phase, err, aerr)
	}
	return fmt.Errorf("rebalance: %s: %w (rolled back with ordered abort)", phase, err)
}

// abortPlan rolls a prepared plan back: ordered opAbortReconfig commands
// unfreeze the donor and disarm/clean the destination, the deployment's
// adopted mapping is reverted if the plan adopted one, and a provisioned
// split partition is removed. Every step is idempotent against replicas
// that never saw the prepare, so it is safe after a crash at any phase
// before the commit.
func (c *Coordinator) abortPlan(plan *store.Plan) error {
	d := c.cfg.Store
	var errs []error
	if err := c.client.AbortReconfig(plan.DonorVia, plan.Epoch); err != nil {
		errs = append(errs, fmt.Errorf("donor abort: %w", err))
	}
	if plan.Kind == store.PlanMerge {
		if err := c.client.AbortReconfig(plan.DestRing, plan.Epoch); err != nil {
			errs = append(errs, fmt.Errorf("destination abort: %w", err))
		}
	}
	// Only a plan that adopted may revert: after a refused adopt the
	// deployment sits at the epoch another publisher adopted.
	if plan.Published {
		d.RevertReconfig(plan.Epoch, plan.Prev)
	}
	if plan.Kind == store.PlanSplit && plan.Provisioned {
		if err := d.RemovePartition(plan.Dest); err != nil {
			errs = append(errs, fmt.Errorf("removing provisioned partition: %w", err))
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	c.cfg.Store.ClearPlan()
	c.aborts++
	if c.cfg.OnStep != nil {
		c.cfg.OnStep("abort")
	}
	return nil
}

// ResolvePending inspects the deployment's recorded plan — of this
// coordinator or a crashed predecessor — and finishes it: a plan that
// died before its commit is rolled back with the ordered abort (the
// frozen range unfreezes, a provisioned partition is removed), and a plan
// that died after the deployment adopted its schema is rolled forward
// (the commit is re-ordered and, for merges, the donor teardown
// completed; both are idempotent). It returns the plan it resolved, or nil
// when nothing was pending.
func (c *Coordinator) ResolvePending() (*store.Plan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.cfg.Store.PendingPlan()
	if !ok {
		return nil, nil
	}
	plan := &p
	if !plan.Published {
		return plan, c.abortPlan(plan)
	}
	// Published: roll forward.
	switch plan.Kind {
	case store.PlanSplit:
		if err := c.client.CommitSplit(plan.DonorVia, plan.Donor, plan.Epoch); err != nil {
			return plan, fmt.Errorf("rebalance: resuming commit: %w", err)
		}
	case store.PlanMerge:
		next, err := plan.Prev.Merge(plan.Donor, plan.Dest)
		if err != nil {
			return plan, fmt.Errorf("rebalance: resuming commit: %w", err)
		}
		if err := c.client.CommitMerge(plan.DestRing, plan.Donor, plan.Dest, plan.Epoch, next); err != nil {
			return plan, fmt.Errorf("rebalance: resuming commit: %w", err)
		}
		if err := c.cfg.Store.RetirePartition(plan.Donor); err != nil {
			return plan, fmt.Errorf("rebalance: resuming teardown: %w", err)
		}
	}
	c.cfg.Store.ClearPlan()
	return plan, nil
}
