package store

import (
	"sync/atomic"

	"mrp/internal/msg"
	"mrp/internal/smr"
)

// SM is the state machine of one MRP-Store partition replica: an ordered
// in-memory map plus the partition descriptor. Multi-partition commands
// (scans multicast through the global ring) are executed against the local
// shard only, and the partition tag in the result lets clients gather one
// reply per partition.
//
// The SM also carries the replica's view of the partitioning schema: the
// current epoch, the partitioner, and — while an online reconfiguration is
// in flight — the pending state between the ordered prepare and its
// ordered commit or abort. Commands addressing keys the partition does not
// own (or cannot currently serve) under the current mapping are answered
// with statusWrongEpoch (the typed redirect clients react to by refreshing
// their schema view and retrying). All of this state changes only
// through ordered commands (opPrepareReconfig / opActivatePart /
// opCommitReconfig / opAbortReconfig), so every replica of a partition
// transitions at the same logical point — which is also what makes every
// phase crash-recoverable: replaying the ring reproduces the exact same
// schema state, including a prepare that was later aborted.
type SM struct {
	partition   int
	partitioner Partitioner
	data        *SortedMap

	// epoch is the schema epoch this replica has committed.
	epoch uint64
	// warming marks a freshly added partition that has not yet received
	// its full key range; it rejects client commands until activated.
	warming bool

	// Pending reconfiguration state, set by opPrepareReconfig and cleared
	// by opCommitReconfig / opAbortReconfig.
	//
	// pendingEpoch is the epoch of the prepared-but-uncommitted change and
	// pendingKind its reconfig kind. prev is the mapping to restore on
	// abort (a split installs the post-split mapping already at prepare).
	pendingEpoch uint64
	pendingKind  byte
	prev         Partitioner
	// migrating marks the split source between prepare and commit: the
	// moved range [movedFrom, ...) is frozen (reads and writes redirected)
	// but still physically present so scans stay complete.
	migrating bool
	movedFrom string
	movedPart int
	// frozen marks the merge donor from its prepare until its ring is
	// torn down: its whole range is moving, so every command — keyed ops
	// and scans alike — is redirected. (Scans of the frozen data would be
	// exact until the survivor's commit, but the donor never learns of
	// that commit — it rides the survivor's ring — so serving them would
	// risk a stale read the moment the survivor starts accepting writes.)
	frozen bool
	// receiving marks the merge survivor between prepare and commit: it
	// accepts epoch-tagged migrate chunks for the range it will own.
	receiving bool

	// statOps counts client data operations this replica executed (reads,
	// writes, scans, and batch sub-ops — not admin or migration commands).
	// It is atomic because the auto-sharding controller samples it from
	// outside the replica's execution lock; it is process-local (not part of
	// the snapshot), so a recovered replica restarts it at zero — the
	// controller consumes rate deltas, which self-heal after one tick.
	statOps atomic.Uint64

	// votes is this replica's own vote history for conditional
	// cross-partition transactions (see txn.go). Own votes are a pure
	// function of the ordered command stream, so the history is part of
	// the snapshot; received remote votes are transient and are not.
	votes voteTable
	// txnEx exchanges CAS votes with the replicas of other participant
	// partitions; nil outside a deployment (conditional multi-partition
	// transactions then fail with statusError, everything else works).
	txnEx TxnExchanger
}

var (
	_ smr.StateMachine = (*SM)(nil)
	_ smr.LocalReader  = (*SM)(nil)
)

// NewSM creates the state machine for one partition at epoch 1.
func NewSM(partition int, p Partitioner) *SM {
	return NewSMAt(partition, p, 1, false)
}

// NewSMAt creates a partition state machine at a given schema epoch.
// warming marks a partition added by an online split that must not serve
// client commands until the moved range has been migrated and an
// opActivatePart command is delivered on its ring.
func NewSMAt(partition int, p Partitioner, epoch uint64, warming bool) *SM {
	return &SM{partition: partition, partitioner: p, data: NewSortedMap(), epoch: epoch, warming: warming}
}

// Data exposes the underlying sorted map (read-only use: preloading and
// test assertions).
func (s *SM) Data() *SortedMap { return s.data }

// Epoch returns the committed schema epoch (test/inspection helper).
func (s *SM) Epoch() uint64 { return s.epoch }

// Warming reports whether the partition still awaits activation.
func (s *SM) Warming() bool { return s.warming }

// Pending reports the epoch of a prepared-but-unresolved reconfiguration
// (0 when none is in flight; test/inspection helper).
func (s *SM) Pending() uint64 { return s.pendingEpoch }

// Execute implements smr.StateMachine. It runs once per ordered command,
// on the ring loop that delivered it and under the replica's execution
// lock; TestExecuteAllocationPin pins its cost.
//
//mrp:deterministic
func (s *SM) Execute(raw []byte) []byte {
	o, err := decodeOp(raw)
	if err != nil {
		return result{status: statusError, partition: uint16(s.partition), epoch: s.epoch}.encode()
	}
	return s.apply(o).encode()
}

// ExecuteLocal implements smr.LocalReader: a lease-holding replica serves
// reads and scans against its applied state without ordering them. Only
// side-effect-free op kinds qualify — everything else declines so the
// client proposes through the ring as usual. The op runs through the same
// apply gates as an ordered execution (warming, frozen, ownership, scan
// epoch), so a local read of a key this partition cannot currently serve
// returns the same typed statusWrongEpoch redirect an ordered read would,
// and the client's refresh-and-retry machinery works unchanged. Runs
// under the replica's execution lock between deliveries (see
// smr.LocalReader), never concurrently with Execute.
func (s *SM) ExecuteLocal(raw []byte) ([]byte, bool) {
	o, err := decodeOp(raw)
	if err != nil {
		return nil, false
	}
	switch o.kind {
	case opRead, opScan:
		return s.apply(o).encode(), true
	}
	return nil, false
}

// wrongEpoch builds the typed redirect reply carrying the replica's
// current epoch.
func (s *SM) wrongEpoch() result {
	return result{status: statusWrongEpoch, partition: uint16(s.partition), epoch: s.epoch}
}

// owns reports whether this partition serves key under the current
// mapping. During a split migration the moved range is already assigned to
// the new partition, so frozen keys fail this check — which is exactly the
// redirect the protocol wants.
func (s *SM) owns(key string) bool {
	return s.partitioner.PartitionOf(key) == s.partition
}

func (s *SM) apply(o op) result {
	res := result{status: statusOK, partition: uint16(s.partition), epoch: s.epoch}
	switch o.kind {
	case opRead, opUpdate, opInsert, opDelete:
		if s.warming || s.frozen || !s.owns(o.key) {
			return s.wrongEpoch()
		}
		s.statOps.Add(1)
		return s.applyKeyed(o)
	case opStats:
		return s.applyStats(o)
	case opScan:
		if s.warming || s.frozen || (o.epoch != 0 && o.epoch < s.epoch) {
			// A scan routed under a superseded schema may be missing whole
			// partitions from its fan-out; make the client re-plan it.
			return s.wrongEpoch()
		}
		if s.receiving && o.epoch != 0 && o.epoch >= s.pendingEpoch {
			// The client already routes under the post-merge schema but the
			// survivor has not committed the merged mapping yet: serving now
			// would silently omit the donor's range. Redirect until commit.
			return s.wrongEpoch()
		}
		res.entries = s.scanOwned(o.key, o.to, o.limit)
		s.statOps.Add(1)
	case opBatch:
		if s.warming || s.frozen {
			return s.wrongEpoch()
		}
		for _, sub := range o.batch {
			if !s.owns(sub.key) {
				// Reject the whole batch before applying anything: the
				// client regroups it under the refreshed schema.
				return s.wrongEpoch()
			}
		}
		s.statOps.Add(uint64(len(o.batch)))
		for _, sub := range o.batch {
			if r := s.applyKeyed(sub); r.status == statusOK {
				res.count++
			}
		}
	case opMigrate:
		accepting := s.warming || (s.receiving && o.epoch == s.pendingEpoch)
		if !accepting || int(o.part) != s.partition {
			return result{status: statusError, partition: uint16(s.partition), epoch: s.epoch}
		}
		for _, sub := range o.batch {
			s.data.Put(sub.key, sub.value)
			res.count++
		}
	case opPrepareReconfig:
		return s.applyPrepare(o)
	case opActivatePart:
		switch {
		case s.partition == int(o.part) && s.warming:
			s.warming = false
			if o.epoch > s.epoch {
				s.epoch = o.epoch
			}
			res.epoch = s.epoch
		case s.partition == int(o.part) && s.epoch >= o.epoch:
			// Already activated at (or past) this epoch: idempotent.
		default:
			// Activating nothing must be loud — a silent OK here would let
			// the coordinator proceed while the partition stays warming.
			res.status = statusError
		}
	case opCommitReconfig:
		return s.applyCommit(o)
	case opAbortReconfig:
		return s.applyAbort(o)
	case opTxn:
		return s.applyTxn(o)
	default:
		res.status = statusError
	}
	return res
}

// applyKeyed executes one ownership-checked single-key operation.
func (s *SM) applyKeyed(o op) result {
	res := result{status: statusOK, partition: uint16(s.partition), epoch: s.epoch}
	switch o.kind {
	case opRead:
		v, ok := s.data.Get(o.key)
		if !ok {
			res.status = statusNotFound
			return res
		}
		res.value = v
		if res.value == nil {
			res.value = []byte{}
		}
	case opUpdate:
		// update(k, v): update entry k with value v, if existent (Table 1).
		if _, ok := s.data.Get(o.key); !ok {
			res.status = statusNotFound
			return res
		}
		s.data.Put(o.key, o.value)
	case opInsert:
		s.data.Put(o.key, o.value)
	case opDelete:
		if !s.data.Delete(o.key) {
			res.status = statusNotFound
		}
	default:
		res.status = statusError
	}
	return res
}

// scanOwned scans the shard, filtered to keys this partition currently
// owns — plus, while a split is migrating, the frozen moved range (still
// physically present here and not yet served anywhere else; the client
// keeps the owner's copy when both sides report a key). A receiving merge
// survivor filters half-transferred donor entries out the same way: they
// are not owned until the commit.
func (s *SM) scanOwned(from, to string, limit int) []Entry {
	if !s.migrating && !s.receiving {
		// The common case: the shard holds only owned keys (inserts are
		// ownership-checked and commits drop moved ranges), so the limit
		// pushes down to the sorted map and the filter is a cheap
		// invariant guard.
		raw := s.data.Scan(from, to, limit)
		out := raw[:0]
		for _, e := range raw {
			if s.partitioner.PartitionOf(e.Key) == s.partition {
				out = append(out, e)
			}
		}
		return out
	}
	// Reconfiguration window: a split donor's frozen moved range, or a
	// merge survivor's half-received chunks, interleave with owned keys —
	// the limit only applies after filtering.
	raw := s.data.Scan(from, to, 0)
	out := make([]Entry, 0, len(raw))
	for _, e := range raw {
		p := s.partitioner.PartitionOf(e.Key)
		if p == s.partition || (s.migrating && p == s.movedPart) {
			out = append(out, e)
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out
}

// resolveStraggler reconciles pending state left by an earlier epoch
// before a newer ordered admin command applies. A reconfiguration's
// commit and the next reconfiguration's prepare can ride different rings,
// and the deterministic merge may deliver them in either order — the same
// order on every replica, but possibly prepare-first. The epoch arithmetic
// disambiguates: the coordinator reuses an aborted epoch for its next plan
// and only advances past an epoch that committed, so an admin command for
// a strictly newer epoch proves the pending epoch committed. Apply the
// lagging commit's effects here; its eventual delivery becomes a no-op.
func (s *SM) resolveStraggler(epoch uint64) {
	if s.pendingEpoch == 0 || s.pendingEpoch >= epoch {
		return
	}
	switch s.pendingKind {
	case reconfigSplit:
		if s.pendingEpoch > s.epoch {
			s.epoch = s.pendingEpoch
		}
		if s.migrating {
			s.dropMovedRange()
		}
	case reconfigMergeDest:
		if rp, ok := s.partitioner.(*RangePartitioner); ok {
			if np, err := rp.Merge(s.movedPart, s.partition); err == nil {
				s.partitioner = np
			}
		}
		if s.pendingEpoch > s.epoch {
			s.epoch = s.pendingEpoch
		}
	case reconfigMergeDonor:
		// A committed merge leaves the donor frozen until its teardown;
		// nothing newer can legitimately target it.
		return
	}
	s.clearPending()
}

// resolveAbort applies the effects of aborting the pending
// reconfiguration: restore the pre-prepare mapping, unfreeze, drop
// half-transferred entries.
func (s *SM) resolveAbort() {
	switch s.pendingKind {
	case reconfigSplit:
		if s.prev != nil {
			s.partitioner = s.prev
		}
	case reconfigMergeDonor:
		// Unfreezing is all it takes: the mapping never changed and the
		// donor's data never left.
	case reconfigMergeDest:
		s.dropUnowned()
	}
	s.clearPending()
}

// applyPrepare dispatches an ordered reconfiguration prepare.
func (s *SM) applyPrepare(o op) result {
	res := result{status: statusOK, partition: uint16(s.partition), epoch: s.epoch}
	s.resolveStraggler(o.epoch)
	if o.epoch <= s.epoch {
		return res // duplicate delivery of an already-committed change
	}
	if s.pendingEpoch == o.epoch {
		// A retry of this epoch: the previous attempt aborted (a committed
		// epoch would have advanced s.epoch past the guard above) and its
		// ordered abort is still in flight on another ring. Resolve it
		// before arming the retry. (Literal duplicate deliveries cannot
		// reach the state machine: the SMR layer deduplicates per-client
		// commands deterministically.)
		s.resolveAbort()
	}
	switch o.rkind {
	case reconfigSplit:
		return s.applyPrepareSplit(o)
	case reconfigMergeDonor:
		s.pendingEpoch = o.epoch
		s.pendingKind = o.rkind
		if s.partition == int(o.part) {
			s.frozen = true
			s.movedPart = int(o.newPart)
			res.entries = s.ownedEntries()
		}
	case reconfigMergeDest:
		if s.warming || s.partition != int(o.newPart) {
			res.status = statusError
			return res
		}
		s.pendingEpoch = o.epoch
		s.pendingKind = o.rkind
		s.movedPart = int(o.part) // the donor, for a lagging-commit resolve
		s.receiving = true
	default:
		res.status = statusError
	}
	return res
}

// applyPrepareSplit adopts the split partitioning and, on the source
// partition, freezes the moved range and returns its entries so the
// coordinator can stream them to the new partition's replicas. The
// coordinator sends the authoritative post-split mapping with the
// command; deriving it locally would fail on replicas whose own mapping
// is stale (reconfigurations their rings never carried — e.g. a merge
// ordered on the survivor's ring alone — leave their view behind).
func (s *SM) applyPrepareSplit(o op) result {
	res := result{status: statusOK, partition: uint16(s.partition), epoch: s.epoch}
	np := o.pmap
	if np == nil {
		// Mapping-free prepare (tests): derive the split locally.
		rp, ok := s.partitioner.(*RangePartitioner)
		if !ok {
			res.status = statusError
			return res
		}
		var err error
		np, err = rp.Split(o.key, int(o.newPart))
		if err != nil {
			res.status = statusError
			return res
		}
	}
	s.prev = s.partitioner
	s.partitioner = np
	s.pendingEpoch = o.epoch
	s.pendingKind = reconfigSplit
	if s.partition == int(o.part) {
		s.migrating = true
		s.movedFrom = o.key
		s.movedPart = int(o.newPart)
		res.entries = s.movedEntries()
	}
	return res
}

// applyCommit finishes a prepared reconfiguration: the split source drops
// the moved range, the merge survivor adopts the merged mapping, and the
// replicas on the ring adopt the new epoch.
func (s *SM) applyCommit(o op) result {
	res := result{status: statusOK, partition: uint16(s.partition), epoch: s.epoch}
	s.resolveStraggler(o.epoch)
	if o.epoch <= s.epoch {
		return res // duplicate delivery (or an already-resolved straggler)
	}
	switch o.rkind {
	case reconfigSplit:
		s.epoch = o.epoch
		if s.migrating && s.partition == int(o.part) {
			s.dropMovedRange()
		}
		s.clearPending()
	case reconfigMergeDest:
		np := o.pmap
		if np == nil {
			// Mapping-free commit (tests): derive the merge locally.
			rp, ok := s.partitioner.(*RangePartitioner)
			if !ok {
				res.status = statusError
				return res
			}
			var err error
			np, err = rp.Merge(int(o.part), int(o.newPart))
			if err != nil {
				res.status = statusError
				return res
			}
		}
		s.partitioner = np
		s.epoch = o.epoch
		s.clearPending()
	default:
		res.status = statusError
		return res
	}
	res.epoch = s.epoch
	return res
}

// applyAbort rolls a prepared reconfiguration back: the pre-prepare
// mapping is restored, frozen ranges unfreeze, and half-transferred
// entries are dropped. A replica with no matching pending state treats the
// abort as an idempotent duplicate.
func (s *SM) applyAbort(o op) result {
	res := result{status: statusOK, partition: uint16(s.partition), epoch: s.epoch}
	s.resolveStraggler(o.epoch)
	if s.pendingEpoch == 0 || o.epoch != s.pendingEpoch {
		return res
	}
	s.resolveAbort()
	return res
}

// clearPending resets the prepared-reconfiguration state (the committed
// mapping and epoch are managed by the caller).
func (s *SM) clearPending() {
	s.pendingEpoch = 0
	s.pendingKind = 0
	s.prev = nil
	s.migrating = false
	s.movedFrom = ""
	s.movedPart = 0
	s.frozen = false
	s.receiving = false
}

// movedEntries returns the frozen entries of the moved range.
func (s *SM) movedEntries() []Entry {
	var out []Entry
	for _, e := range s.data.Scan(s.movedFrom, "", 0) {
		if s.partitioner.PartitionOf(e.Key) == s.movedPart {
			out = append(out, e)
		}
	}
	return out
}

// ownedEntries returns every entry the partition owns (the merge donor's
// transfer set: its whole range).
func (s *SM) ownedEntries() []Entry {
	var out []Entry
	for _, e := range s.data.Scan("", "", 0) {
		if s.owns(e.Key) {
			out = append(out, e)
		}
	}
	return out
}

// dropMovedRange deletes the frozen entries after ownership has flipped.
func (s *SM) dropMovedRange() {
	for _, e := range s.movedEntries() {
		s.data.Delete(e.Key)
	}
}

// dropUnowned deletes every entry the partition does not own under the
// current mapping — on an aborting merge survivor that is exactly the set
// of half-transferred donor chunks (everything else it holds is
// ownership-checked on the way in).
func (s *SM) dropUnowned() {
	var doomed []string
	s.data.Ascend(func(e Entry) bool {
		if !s.owns(e.Key) {
			doomed = append(doomed, e.Key)
		}
		return true
	})
	for _, k := range doomed {
		s.data.Delete(k)
	}
}

// snapshotV4 is the snapshot format version tag, the only one Restore
// accepts: checkpoints never outlive the process, so no older encoding
// needs to stay decodable.
const snapshotV4 = 4

// appendPartitioner encodes a partitioner for snapshots and reconfig ops.
func appendPartitioner(w *msg.Writer, p Partitioner) {
	switch p := p.(type) {
	case *HashPartitioner:
		w.U8(0)
		w.U32(uint32(p.n))
	case *RangePartitioner:
		w.U8(1)
		w.U32(uint32(len(p.assign)))
		for _, bound := range p.bounds {
			w.Str(bound)
		}
		for _, a := range p.assign {
			w.U32(uint32(a))
		}
	default:
		w.U8(0xFF)
	}
}

// takePartitioner decodes what appendPartitioner encodes, failing r on
// anything else.
func takePartitioner(r *msg.Reader) Partitioner {
	switch r.U8() {
	case 0:
		n := int(r.U32())
		if n < 1 {
			// NewHashPartitioner would turn it into 1, which re-encodes
			// differently.
			r.Fail()
			return nil
		}
		return NewHashPartitioner(n)
	case 1:
		// Each of the n slots carries at least its 4-byte assignment, so
		// a corrupt count cannot size the slices beyond the input.
		n := r.Count(int(r.U32()), 4)
		if n < 1 {
			r.Fail()
			return nil
		}
		bounds := make([]string, n-1)
		for i := range bounds {
			bounds[i] = r.Str()
		}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = int(r.U32())
		}
		if r.Err() != nil {
			return nil
		}
		rp, err := newRangePartitionerAssigned(bounds, assign)
		if err != nil {
			r.Fail()
			return nil
		}
		return rp
	default:
		r.Fail()
		return nil
	}
}

// snapshotFlags packs the reconfiguration booleans into the snapshot's
// flags byte; bits above them are never set.
const snapshotFlags = 1 | 2 | 4 | 8

// Snapshot implements smr.StateMachine: the schema state (epoch, pending
// reconfiguration, partitioners) followed by the full shard as
// length-prefixed key/value pairs. All fields evolve deterministically, so
// snapshots of converged replicas remain byte-identical.
//
//mrp:deterministic
func (s *SM) Snapshot() []byte {
	var w msg.Writer
	w.U8(snapshotV4)
	w.U64(s.epoch)
	w.U64(s.pendingEpoch)
	var flags byte
	if s.warming {
		flags |= 1
	}
	if s.migrating {
		flags |= 2
	}
	if s.frozen {
		flags |= 4
	}
	if s.receiving {
		flags |= 8
	}
	w.U8(flags)
	w.U8(s.pendingKind)
	w.U16(uint16(s.movedPart))
	w.Str(s.movedFrom)
	appendPartitioner(&w, s.partitioner)
	w.Bool(s.prev != nil)
	if s.prev != nil {
		appendPartitioner(&w, s.prev)
	}
	w.U32(uint32(s.data.Len()))
	s.data.Ascend(func(e Entry) bool {
		w.Str(e.Key)
		w.Bytes(e.Value)
		return true
	})
	s.votes.encode(&w)
	return w.Buf
}

// Restore implements smr.StateMachine. It accepts exactly what Snapshot
// produces — the v4 header, known flag bits, strictly ascending keys, no
// trailing bytes — and installs nothing unless all of b decodes, so a
// truncated or corrupt snapshot leaves the machine as it was (and
// smr.Replica.InstallCheckpoint, seeing Snapshot differ from b, refuses
// the checkpoint).
//
//mrp:deterministic
func (s *SM) Restore(b []byte) {
	r := msg.NewReader(b)
	if r.U8() != snapshotV4 {
		return
	}
	epoch, pendingEpoch := r.U64(), r.U64()
	flags, pendingKind := r.U8(), r.U8()
	if flags&^snapshotFlags != 0 {
		r.Fail()
	}
	movedPart, movedFrom := int(r.U16()), r.Str()
	partitioner := takePartitioner(&r)
	var prev Partitioner
	if r.Bool() {
		prev = takePartitioner(&r)
	}
	data := NewSortedMap()
	n := r.Count(int(r.U32()), 6)
	last := ""
	for i := 0; i < n; i++ {
		k, v := r.Str(), r.Bytes()
		if i > 0 && k <= last {
			r.Fail()
		}
		last = k
		data.Put(k, append([]byte(nil), v...))
	}
	votes, order := decodeVotes(&r)
	if r.Done() != nil {
		return
	}
	s.data = data
	s.epoch, s.pendingEpoch, s.pendingKind = epoch, pendingEpoch, pendingKind
	s.warming = flags&1 != 0
	s.migrating = flags&2 != 0
	s.frozen = flags&4 != 0
	s.receiving = flags&8 != 0
	s.movedPart, s.movedFrom = movedPart, movedFrom
	s.partitioner, s.prev = partitioner, prev
	s.votes.install(votes, order)
}
