package store

import (
	"errors"
	"fmt"
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/smr"
	"mrp/internal/txn"
)

// This file holds the client-side half of cross-partition transactions:
// planning the minimal ring set against the cached schema view, the
// single multicast submission, the per-participant gather, and the two
// retry disciplines —
//
//   - definitive wrong-epoch redirects replan the unapplied halves under
//     a refreshed view and a NEW sequence number (the redirecting
//     replicas recorded the old one as executed, so reusing it would
//     only replay the redirect from their dedup cache);
//   - ambiguous timeouts retry the SAME sequence number with the same
//     participant plan, because some halves may have applied: the
//     replicas' cross-ring dedup bitmaps answer re-deliveries from the
//     result cache instead of applying twice.
//
// Halves that are known applied are excluded from every replan — a new
// owner partition has never seen the old sequence number, so re-sending
// a completed half there would double-apply it.

// ErrNoSharedRing reports a conditional (CompareAndSwapAcross)
// transaction whose participants share no single ring: the vote exchange
// is only deadlock-free under one merged delivery order, so the client
// refuses to fan it out. (Partitions created by a live split are not
// global-ring members; route conditional transactions around them or
// deploy with a global ring covering every participant.)
var ErrNoSharedRing = errors.New("store: participants share no ring; conditional transaction refused")

// CASOp is one key's conditional update in CompareAndSwapAcross.
type CASOp struct {
	Key string
	// Expect is the value the key must currently have; nil means the key
	// must be absent.
	Expect []byte
	// New is the value written when every comparison matches; nil deletes
	// the key.
	New []byte
}

// ForceGlobal switches the client to the naive baseline that multicasts
// EVERY transaction on the global ring, regardless of how few partitions
// it touches — the comparison leg of the txn bench figure. It fails fast
// when the deployment has no global ring.
func (c *Client) ForceGlobal(on bool) { c.forceGlobal.Store(on) }

// MultiGet reads several keys — possibly spanning partitions — as one
// multicast command and returns the found entries. Each participant
// partition serves its half at the command's merged delivery position;
// with a shared ring covering all participants the reads form one
// consistent cut, with fan-out (or a mid-flight reconfiguration
// redirect) the halves may come from different positions, like a
// fanned-out Scan.
//
//mrp:ordered
func (c *Client) MultiGet(keys []string) (map[string][]byte, error) {
	ops := make([]txn.KeyOp, len(keys))
	for i, k := range keys {
		ops[i] = txn.KeyOp{Key: k}
	}
	reads, err := c.multiOp(txn.KindGet, ops)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(reads))
	for _, r := range reads {
		if r.Found {
			out[r.Key] = r.Value
		}
	}
	return out, nil
}

// MultiPut writes several entries — possibly spanning partitions — as
// one multicast command.
//
//mrp:ordered
func (c *Client) MultiPut(entries []Entry) error {
	ops := make([]txn.KeyOp, len(entries))
	for i, e := range entries {
		ops[i] = txn.KeyOp{Key: e.Key, Value: e.Value}
	}
	_, err := c.multiOp(txn.KindPut, ops)
	return err
}

// Transfer atomically moves amount from one 64-bit balance to another —
// the bank transaction of the paper's Section 3 narrative — and returns
// the resulting balances (read-your-writes: the values are produced at
// the transaction's own delivery position). Missing accounts start at
// zero, so the sum over all balances is conserved by construction; no
// lock and no 2PC coordinator is involved, only one multicast ordered by
// the learner merge.
//
//mrp:ordered
func (c *Client) Transfer(from, to string, amount int64) (fromBal, toBal int64, err error) {
	reads, err := c.multiOp(txn.KindTransfer, []txn.KeyOp{
		{Key: from, Delta: -amount},
		{Key: to, Delta: amount},
	})
	if err != nil {
		return 0, 0, err
	}
	for _, r := range reads {
		switch r.Key {
		case from:
			fromBal = txn.DecodeBalance(r.Value)
		case to:
			toBal = txn.DecodeBalance(r.Value)
		}
	}
	if from == to {
		toBal = fromBal
	}
	return fromBal, toBal, nil
}

// CompareAndSwapAcross compares every listed key against its expected
// value and, only if ALL match, writes every new value — across
// partitions, atomically, without locks: participants deliver the one
// multicast command in the same relative order, exchange votes on their
// local comparisons, and unanimously apply or discard. It returns whether
// the swap was applied. Participants must share a ring (ErrNoSharedRing
// otherwise).
//
//mrp:ordered
func (c *Client) CompareAndSwapAcross(ops []CASOp) (bool, error) {
	if len(ops) == 0 {
		return true, nil
	}
	kops := make([]txn.KeyOp, len(ops))
	for i, o := range ops {
		kops[i] = txn.KeyOp{Key: o.Key, Expect: o.Expect, Value: o.New}
	}
	deadline := time.Now().Add(c.timeout)
	for {
		v := c.viewFor()
		plan, ok := c.planOps(v, kops, nil, nil)
		if !ok {
			if time.Now().After(deadline) {
				return false, &WrongEpochError{ClientEpoch: v.epoch}
			}
			c.repace(v.epoch)
			continue
		}
		if len(plan.parts) > 1 && !plan.single {
			return false, ErrNoSharedRing
		}
		// A fresh sequence number per planned attempt: a redirected CAS
		// applied nothing anywhere, and the redirecting replicas hold the
		// old number in their dedup caches.
		seq := c.smr.Reserve()
		t := txn.Txn{Client: c.smr.ID(), Seq: seq, Kind: txn.KindCAS, Parts: plan.parts, Ops: plan.ops}
		replies, err := c.execTxn(v.epoch, seq, t, plan.rings)
		for errors.Is(err, smr.ErrTimeout) && !time.Now().After(deadline) {
			// Ambiguous: the verdict may have been decided. Re-ask under the
			// SAME sequence number; replicas that executed it answer from
			// their dedup caches.
			c.refresh()
			replies, err = c.execTxn(v.epoch, seq, t, plan.rings)
		}
		if err != nil {
			return false, err
		}
		redirected := false
		applied := true
		for _, p := range plan.parts {
			res := replies[int(p)]
			switch res.status {
			case statusWrongEpoch:
				redirected = true
			case statusOK:
				tr, derr := txn.DecodeResult(res.value)
				if derr != nil {
					return false, derr
				}
				if tr.Outcome != txn.OutcomeApplied {
					applied = false
				}
			default:
				return false, fmt.Errorf("store: server error for transaction (status %d)", res.status)
			}
		}
		if !redirected {
			return applied, nil
		}
		if time.Now().After(deadline) {
			return false, &WrongEpochError{ClientEpoch: v.epoch}
		}
		c.repace(v.epoch)
	}
}

// txnPlan is one attempt's routing decision.
type txnPlan struct {
	ops    []txn.KeyOp
	parts  []uint16
	rings  []msg.RingID
	single bool
}

// planOps assigns each pending op to its owner partition under v and
// computes the minimal ring cover. done/assigned (nil for all-pending
// single-shot planning) implement the multiOp replan: completed ops are
// excluded, and nil is returned as !ok when the view cannot route a key
// yet (the caller refreshes and retries).
func (c *Client) planOps(v routeView, ops []txn.KeyOp, done []bool, assigned []uint16) (txnPlan, bool) {
	var plan txnPlan
	seen := make(map[uint16]bool, 2)
	for i, o := range ops {
		if done != nil && done[i] {
			continue
		}
		p := v.partitioner.PartitionOf(o.Key)
		if p >= len(v.rings) || v.rings[p] == 0 {
			return txnPlan{}, false
		}
		o.Part = uint16(p)
		if assigned != nil {
			assigned[i] = o.Part
		}
		plan.ops = append(plan.ops, o)
		if !seen[o.Part] {
			seen[o.Part] = true
			plan.parts = append(plan.parts, o.Part)
		}
	}
	sortU16(plan.parts)
	return c.coverPlan(v, plan)
}

// replanSticky rebuilds the previous attempt's plan verbatim from the
// sticky assignment — the ambiguous-timeout path must resubmit the exact
// same halves to the exact same participants.
func (c *Client) replanSticky(v routeView, ops []txn.KeyOp, done []bool, assigned []uint16) (txnPlan, bool) {
	var plan txnPlan
	seen := make(map[uint16]bool, 2)
	for i, o := range ops {
		if done[i] {
			continue
		}
		o.Part = assigned[i]
		if int(o.Part) >= len(v.rings) || v.rings[o.Part] == 0 {
			// The assigned partition is gone (merged away) while the attempt
			// is still ambiguous. There is no safe reassignment — the old
			// partition may have applied the half — so fail the plan; the
			// caller errors out at its deadline (conservation over
			// availability).
			return txnPlan{}, false
		}
		plan.ops = append(plan.ops, o)
		if !seen[o.Part] {
			seen[o.Part] = true
			plan.parts = append(plan.parts, o.Part)
		}
	}
	sortU16(plan.parts)
	return c.coverPlan(v, plan)
}

// coverPlan computes the minimal ring set for a plan's participants.
func (c *Client) coverPlan(v routeView, plan txnPlan) (txnPlan, bool) {
	if len(plan.parts) == 0 {
		return txnPlan{}, false
	}
	if c.forceGlobal.Load() {
		if v.global == 0 {
			return txnPlan{}, false
		}
		plan.rings = []msg.RingID{v.global}
		plan.single = true
		return plan, true
	}
	members := make([]int, len(plan.parts))
	for i, p := range plan.parts {
		members[i] = int(p)
	}
	rings, single, err := multiring.Cover(members,
		func(p int) (msg.RingID, bool) {
			if p < len(v.rings) && v.rings[p] != 0 {
				return v.rings[p], true
			}
			return 0, false
		},
		v.global,
		func(p int) bool { return p < len(v.onGlobal) && v.onGlobal[p] })
	if err != nil {
		return txnPlan{}, false
	}
	plan.rings = rings
	plan.single = single
	return plan, true
}

// multiOp drives an unconditional transaction (get/put/transfer) to
// completion across redirects and ambiguous timeouts, returning the
// merged reads of every applied half.
func (c *Client) multiOp(kind byte, ops []txn.KeyOp) ([]txn.KeyRead, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	deadline := time.Now().Add(c.timeout)
	done := make([]bool, len(ops))
	assigned := make([]uint16, len(ops))
	reads := make(map[string]txn.KeyRead, len(ops))
	var seq uint64
	sticky := false
	for {
		v := c.viewFor()
		var plan txnPlan
		var ok bool
		if sticky {
			plan, ok = c.replanSticky(v, ops, done, assigned)
			if !ok {
				return nil, fmt.Errorf("store: participant of an ambiguous transaction attempt no longer routable")
			}
		} else {
			plan, ok = c.planOps(v, ops, done, assigned)
			if !ok {
				if time.Now().After(deadline) {
					return nil, &WrongEpochError{ClientEpoch: v.epoch}
				}
				c.repace(v.epoch)
				continue
			}
			seq = c.smr.Reserve()
		}
		t := txn.Txn{Client: c.smr.ID(), Seq: seq, Kind: kind, Parts: plan.parts, Ops: plan.ops}
		replies, err := c.execTxn(v.epoch, seq, t, plan.rings)
		if err != nil {
			if errors.Is(err, smr.ErrTimeout) && !time.Now().After(deadline) {
				// Ambiguous: any half may have applied. Keep the sequence
				// number AND the participant assignment and resubmit the
				// identical command; dedup bitmaps make it idempotent.
				sticky = true
				c.refresh()
				continue
			}
			return nil, err
		}
		sticky = false
		redirected := false
		for _, p := range plan.parts {
			res := replies[int(p)]
			switch res.status {
			case statusWrongEpoch:
				redirected = true
			case statusOK:
				tr, derr := txn.DecodeResult(res.value)
				if derr != nil {
					return nil, derr
				}
				if tr.Outcome != txn.OutcomeApplied {
					return nil, fmt.Errorf("store: unexpected transaction outcome %d", tr.Outcome)
				}
				for i := range ops {
					if !done[i] && assigned[i] == p {
						done[i] = true
					}
				}
				for _, r := range tr.Reads {
					reads[r.Key] = r
				}
			default:
				return nil, fmt.Errorf("store: server error for transaction (status %d)", res.status)
			}
		}
		if !redirected {
			break
		}
		if time.Now().After(deadline) {
			return nil, &WrongEpochError{ClientEpoch: v.epoch}
		}
		c.repace(v.epoch)
	}
	out := make([]txn.KeyRead, 0, len(ops))
	for _, o := range ops {
		if r, ok := reads[o.Key]; ok {
			out = append(out, r)
		} else {
			out = append(out, txn.KeyRead{Key: o.Key})
		}
	}
	return out, nil
}

// execTxn submits one planned transaction attempt: a single multicast to
// the plan's ring set, gathered until every participant partition has
// answered. The per-participant results carry the typed status —
// including the statusWrongEpoch redirect — that every caller must route
// on.
//
//mrp:ordered status
func (c *Client) execTxn(epoch, seq uint64, t txn.Txn, rings []msg.RingID) (map[int]result, error) {
	o := op{kind: opTxn, epoch: epoch, value: t.Encode()}
	involved := make(map[int]bool, len(t.Parts))
	for _, p := range t.Parts {
		involved[int(p)] = true
	}
	raws, err := c.smr.ExecuteGatherAt(seq, rings, o.encode(), len(t.Parts), func(raw []byte) (int, bool) {
		res, derr := decodeResult(raw)
		if derr != nil {
			return 0, false
		}
		return int(res.partition), involved[int(res.partition)]
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]result, len(raws))
	for p, raw := range raws {
		res, derr := decodeResult(raw)
		if derr != nil {
			return nil, derr
		}
		out[p] = res
	}
	return out, nil
}

// repace refreshes the view after a redirect and paces the retry when the
// schema has not been adopted yet (migration freeze window).
func (c *Client) repace(before uint64) {
	c.refresh()
	if c.currentView().epoch == before {
		time.Sleep(epochRetryDelay)
	}
}

func sortU16(s []uint16) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
