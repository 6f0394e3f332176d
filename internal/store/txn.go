package store

import (
	"bytes"
	"sync"

	"mrp/internal/msg"
	"mrp/internal/txn"
)

// This file holds the replica-side half of cross-partition transactions
// (internal/txn): the opTxn executor each participant's state machine
// runs at the transaction's merged delivery position, and the replica's
// own vote history for conditional (CAS) transactions.
//
// The execution model is the paper's (Section 3): the transaction is ONE
// command, atomically multicast to a ring set covering the participants;
// every replica of every participant delivers it in the same relative
// order and executes its half deterministically. Unconditional halves
// (get/put/transfer) are deterministic in isolation. Conditional halves
// (CAS) additionally exchange votes between participants — an S-SMR-style
// execution-atomicity exchange over the service plane — and all apply or
// all discard.

// TxnExchanger swaps CAS votes between the replicas of participant
// partitions. Implemented by *txn.Exchanger; the indirection keeps the SM
// constructible without a deployment (single-partition transactions never
// need it).
type TxnExchanger interface {
	// Exchange blocks until the combined verdict of transaction
	// (client, seq) among parts is decided, contributing own.
	Exchange(client, seq uint64, parts []uint16, own byte) byte
}

// SetTxnExchanger wires the vote exchanger in; call before the replica
// starts executing commands.
func (s *SM) SetTxnExchanger(ex TxnExchanger) { s.txnEx = ex }

// TxnVote returns this replica's own recorded vote for a transaction —
// the exchanger's OwnVote hook, serving vote pulls from peer replicas. It
// is safe to call from the service goroutine while the execution
// goroutine writes new votes.
func (s *SM) TxnVote(client, seq uint64) (byte, bool) {
	return s.votes.get(client, seq)
}

// applyTxn executes this partition's half of a cross-partition
// transaction at its merged delivery position.
func (s *SM) applyTxn(o op) result {
	t, err := txn.Decode(o.value)
	if err != nil {
		return result{status: statusError, partition: uint16(s.partition), epoch: s.epoch}
	}
	if !containsU16(t.Parts, uint16(s.partition)) {
		// Delivered only because this replica shares a ring (typically the
		// global ring) with a participant: acknowledge without touching
		// state, so the client's gather can tell "not involved" from
		// "involved but redirected".
		return s.txnResult(txn.Result{Outcome: txn.OutcomeNotInvolved})
	}
	if s.warming || s.frozen {
		// A planned participant that cannot serve: a split-born partition
		// still warming, or a merge donor frozen by an ordered prepare.
		// Every replica of this partition is in the same state at this
		// delivery position (the freeze itself is ordered), so the verdict
		// is deterministic — and for a CAS it must still be voted, or the
		// other participants would wait forever.
		return s.txnRedirect(t)
	}
	mine := make([]txn.KeyOp, 0, len(t.Ops))
	for _, kop := range t.Ops {
		if kop.Part == uint16(s.partition) {
			mine = append(mine, kop)
		}
	}
	for _, kop := range mine {
		if !s.owns(kop.Key) {
			// The client's plan is stale (a reconfiguration moved the key):
			// redirect the whole half — applying a subset would break the
			// all-or-nothing contract of the half.
			return s.txnRedirect(t)
		}
	}
	switch t.Kind {
	case txn.KindGet:
		reads := make([]txn.KeyRead, 0, len(mine))
		for _, kop := range mine {
			v, ok := s.data.Get(kop.Key)
			reads = append(reads, txn.KeyRead{Key: kop.Key, Found: ok, Value: v})
		}
		s.statOps.Add(uint64(len(mine)))
		return s.txnResult(txn.Result{Outcome: txn.OutcomeApplied, Reads: reads})
	case txn.KindPut:
		for _, kop := range mine {
			s.data.Put(kop.Key, kop.Value)
		}
		s.statOps.Add(uint64(len(mine)))
		return s.txnResult(txn.Result{Outcome: txn.OutcomeApplied})
	case txn.KindTransfer:
		reads := make([]txn.KeyRead, 0, len(mine))
		for _, kop := range mine {
			cur, _ := s.data.Get(kop.Key)
			bal := txn.DecodeBalance(cur) + kop.Delta
			v := txn.EncodeBalance(bal)
			s.data.Put(kop.Key, v)
			reads = append(reads, txn.KeyRead{Key: kop.Key, Found: true, Value: v})
		}
		s.statOps.Add(uint64(len(mine)))
		return s.txnResult(txn.Result{Outcome: txn.OutcomeApplied, Reads: reads})
	case txn.KindCAS:
		return s.applyTxnCAS(t, mine)
	default:
		return result{status: statusError, partition: uint16(s.partition), epoch: s.epoch}
	}
}

// applyTxnCAS executes this partition's half of a conditional
// transaction: compute the local verdict, exchange votes with the other
// participants when there are any, then apply all local writes or none.
func (s *SM) applyTxnCAS(t txn.Txn, mine []txn.KeyOp) result {
	vote := byte(txn.VoteOK)
	actual := make([]txn.KeyRead, 0, len(mine))
	for _, kop := range mine {
		cur, found := s.data.Get(kop.Key)
		actual = append(actual, txn.KeyRead{Key: kop.Key, Found: found, Value: cur})
		match := (kop.Expect == nil && !found) ||
			(kop.Expect != nil && found && bytes.Equal(cur, kop.Expect))
		if !match {
			vote = txn.VoteMismatch
		}
	}
	if len(t.Parts) > 1 {
		// Record the own vote BEFORE exchanging so peer replicas pulling it
		// (Want) can be answered by the service goroutine while this
		// goroutine waits — and so a replay after recovery finds it again.
		s.votes.put(t.Client, t.Seq, vote)
		if s.txnEx == nil {
			return result{status: statusError, partition: uint16(s.partition), epoch: s.epoch}
		}
		vote = s.txnEx.Exchange(t.Client, t.Seq, t.Parts, vote)
	}
	switch vote {
	case txn.VoteWrongEpoch:
		// Some participant's half was unservable: nothing applied anywhere;
		// the client refreshes its schema, replans, and retries.
		return s.wrongEpoch()
	case txn.VoteMismatch:
		s.statOps.Add(uint64(len(mine)))
		return s.txnResult(txn.Result{Outcome: txn.OutcomeFailed, Reads: actual})
	default:
		for _, kop := range mine {
			if kop.Value == nil {
				s.data.Delete(kop.Key)
			} else {
				s.data.Put(kop.Key, kop.Value)
			}
		}
		s.statOps.Add(uint64(len(mine)))
		return s.txnResult(txn.Result{Outcome: txn.OutcomeApplied})
	}
}

// txnRedirect answers an unservable half. For a conditional transaction
// with several participants the verdict must still be voted — every other
// participant blocks on this partition's vote — and recorded, so late
// vote pulls (a peer replaying after recovery) can be answered.
func (s *SM) txnRedirect(t txn.Txn) result {
	if t.Kind == txn.KindCAS && len(t.Parts) > 1 {
		s.votes.put(t.Client, t.Seq, txn.VoteWrongEpoch)
		if s.txnEx != nil {
			s.txnEx.Exchange(t.Client, t.Seq, t.Parts, txn.VoteWrongEpoch)
		}
	}
	return s.wrongEpoch()
}

// txnResult wraps a participant reply into a store result.
func (s *SM) txnResult(r txn.Result) result {
	return result{
		status:    statusOK,
		partition: uint16(s.partition),
		epoch:     s.epoch,
		value:     txn.EncodeResult(r),
	}
}

func containsU16(set []uint16, v uint16) bool {
	for _, x := range set {
		if x == v {
			return true
		}
	}
	return false
}

// voteKey identifies one transaction in the vote history.
type voteKey struct {
	client uint64
	seq    uint64
}

// voteTableCap bounds the vote history kept for late vote pulls; entries
// are evicted FIFO in arrival (= delivery) order, which is identical
// across replicas, so eviction is deterministic too.
const voteTableCap = 4096

// voteTable is a replica's own CAS vote history: written by the execution
// goroutine as transactions are delivered, read by the service goroutine
// answering vote pulls from peer replicas. Contents are a pure function
// of the ordered command stream — snapshot-safe.
type voteTable struct {
	mu    sync.Mutex
	votes map[voteKey]byte
	order []voteKey
}

func (vt *voteTable) put(client, seq uint64, vote byte) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if vt.votes == nil {
		vt.votes = make(map[voteKey]byte)
	}
	k := voteKey{client: client, seq: seq}
	if _, dup := vt.votes[k]; !dup {
		vt.order = append(vt.order, k)
		if len(vt.order) > voteTableCap {
			delete(vt.votes, vt.order[0])
			vt.order = vt.order[1:]
		}
	}
	vt.votes[k] = vote
}

func (vt *voteTable) get(client, seq uint64) (byte, bool) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	v, ok := vt.votes[voteKey{client: client, seq: seq}]
	return v, ok
}

// encode appends the history in FIFO order (identical across replicas:
// appends follow delivery order), keeping snapshots byte-identical.
func (vt *voteTable) encode(w *msg.Writer) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	w.U32(uint32(len(vt.order)))
	for _, k := range vt.order {
		w.U64(k.client)
		w.U64(k.seq)
		w.U8(vt.votes[k])
	}
}

// decodeVotes reads what encode writes, failing r on a repeated key (which
// encode can never produce).
func decodeVotes(r *msg.Reader) (map[voteKey]byte, []voteKey) {
	n := r.Count(int(r.U32()), 17)
	votes := make(map[voteKey]byte, n)
	order := make([]voteKey, 0, n)
	for i := 0; i < n; i++ {
		k := voteKey{client: r.U64(), seq: r.U64()}
		if _, dup := votes[k]; dup {
			r.Fail()
		}
		votes[k] = r.U8()
		order = append(order, k)
	}
	return votes, order
}

// install replaces the history with a decoded one.
func (vt *voteTable) install(votes map[voteKey]byte, order []voteKey) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	vt.votes, vt.order = votes, order
}
