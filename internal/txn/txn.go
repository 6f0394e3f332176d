// Package txn implements cross-partition transactions over atomic
// multicast, the paper's headline programming model (conf_middleware
// BenzMPG14, Sections 3 and 6): a multi-key operation is encoded as ONE
// command, multicast once to the minimal set of rings covering the
// involved partitions, delivered in the same relative order at every
// replica of every participant by the deterministic learner merge, and
// applied by each participant's state machine executing its half. There
// are no locks and no 2PC coordinator: the merge order IS the commit
// order.
//
// The package holds the pieces that are independent of the store:
//
//   - the transaction payload and result codecs (strict and canonical, so
//     the op-encoding fuzzers can assert decode∘encode is the identity);
//   - the replica-side vote Exchanger used by conditional transactions
//     (CompareAndSwapAcross), an S-SMR-style execution-atomicity exchange:
//     participants deliver the command in the same relative order, compute
//     a local verdict, swap votes over the service plane, and all apply or
//     all discard.
//
// Unconditional transactions (MultiGet, MultiPut, transfers) need no vote
// exchange at all — each half is deterministic in isolation — which is
// exactly the "weaker but cheaper" point in the design space the paper's
// Figure 4 configuration occupies.
package txn

import (
	"bytes"
	"errors"
	"fmt"

	"mrp/internal/msg"
)

// Transaction kinds.
const (
	// KindGet reads every named key; each participant returns its half.
	KindGet byte = iota + 1
	// KindPut writes every named key unconditionally.
	KindPut
	// KindCAS compares every key against an expected value and swaps all
	// or none; participants exchange votes to agree on the outcome.
	KindCAS
	// KindTransfer applies a signed delta to each key's 64-bit balance
	// (missing keys start at zero) and returns the new balances: the
	// transfer-style read-modify-write of the bank workload.
	KindTransfer
	maxKind
)

// Votes exchanged between participants of a KindCAS transaction, and the
// combined verdicts. Codes are ordered by precedence: the combined verdict
// is the maximum over all participants' votes, so any participant seeing a
// VoteWrongEpoch vote may stop waiting early (no later vote can change the
// outcome), while VoteMismatch must wait for the full vector.
const (
	// VoteOK: every local key matched its expected value.
	VoteOK byte = iota + 1
	// VoteMismatch: at least one local key differed.
	VoteMismatch
	// VoteWrongEpoch: the participant no longer owns (or does not yet
	// own) at least one of its keys — the client must replan and retry.
	VoteWrongEpoch
)

// Transaction outcomes, reported per participant in Result.
const (
	// OutcomeApplied: this participant executed its half.
	OutcomeApplied byte = iota + 1
	// OutcomeFailed: a KindCAS comparison failed somewhere; nothing was
	// applied anywhere. Reads carry the actual values of the local keys.
	OutcomeFailed
	// OutcomeNotInvolved: the replica's partition is not a participant
	// (it received the command only because it shares a ring, e.g. the
	// global ring, with one).
	OutcomeNotInvolved
)

// KeyOp is one key's share of a transaction. Part is the participant
// partition the client planned for the key; replicas use it to select
// their half, and the plan being stale is exactly what the wrong-epoch
// redirect catches.
type KeyOp struct {
	Part uint16
	Key  string
	// Value is the new value for KindPut and KindCAS.
	Value []byte
	// Expect is the expected current value for KindCAS; nil means the key
	// is expected to be absent.
	Expect []byte
	// Delta is the signed balance change for KindTransfer.
	Delta int64
}

// Txn is the wire form of a cross-partition transaction. (Client, Seq)
// identify it globally — they mirror the ordered command's own identity,
// so a retried command carries the same transaction identity and the
// replicas' dedup bitmaps make re-execution idempotent. Parts is the
// sorted set of participant partitions the client planned against its
// schema view.
type Txn struct {
	Client uint64
	Seq    uint64
	Kind   byte
	Parts  []uint16
	Ops    []KeyOp
}

// KeyRead is one key's value as observed (or produced) by a participant.
type KeyRead struct {
	Key   string
	Found bool
	Value []byte
}

// Result is one participant's reply to a transaction: its verdict plus
// the reads its half produced (gets: current values; transfers: the new
// balances, giving the client read-your-writes; failed CAS: the actual
// values that broke the comparison).
type Result struct {
	Outcome byte
	Reads   []KeyRead
}

// ErrBadTxn reports a malformed or non-canonical transaction encoding.
var ErrBadTxn = errors.New("txn: malformed transaction payload")

// Encode serializes t canonically: fixed field order, big-endian sizes,
// sorted unique Parts. Decode rejects everything Encode cannot produce,
// so decode∘encode is the identity on accepted inputs (asserted by fuzz).
func (t Txn) Encode() []byte {
	w := msg.Writer{Buf: make([]byte, 0, 64)}
	w.U64(t.Client)
	w.U64(t.Seq)
	w.U8(t.Kind)
	w.U16(uint16(len(t.Parts)))
	for _, p := range t.Parts {
		w.U16(p)
	}
	w.U32(uint32(len(t.Ops)))
	for _, o := range t.Ops {
		w.U16(o.Part)
		w.Str(o.Key)
		switch t.Kind {
		case KindPut:
			w.Bytes(o.Value)
		case KindCAS:
			// A presence flag distinguishes nil (absent) from empty
			// (present, zero length): Expect=nil means "key must not exist".
			w.Bool(o.Expect != nil)
			if o.Expect != nil {
				w.Bytes(o.Expect)
			}
			w.Bool(o.Value != nil)
			if o.Value != nil {
				w.Bytes(o.Value)
			}
		case KindTransfer:
			w.U64(uint64(o.Delta))
		}
	}
	return w.Buf
}

// Decode parses a transaction payload, enforcing canonical form: known
// kind, sorted unique participant set, every op assigned to a listed
// participant, and no trailing bytes. Values are copies, never aliases of
// b.
func Decode(b []byte) (Txn, error) {
	var t Txn
	r := msg.NewReader(b)
	t.Client = r.U64()
	t.Seq = r.U64()
	t.Kind = r.U8()
	if t.Kind == 0 || t.Kind >= maxKind {
		return Txn{}, ErrBadTxn
	}
	np := r.Count(int(r.U16()), 2)
	if np == 0 {
		return Txn{}, ErrBadTxn
	}
	t.Parts = make([]uint16, np)
	for i := range t.Parts {
		t.Parts[i] = r.U16()
		if i > 0 && t.Parts[i] <= t.Parts[i-1] {
			return Txn{}, ErrBadTxn
		}
	}
	no := r.Count(int(r.U32()), 4)
	if no == 0 {
		return Txn{}, ErrBadTxn
	}
	t.Ops = make([]KeyOp, no)
	for i := range t.Ops {
		o := &t.Ops[i]
		o.Part = r.U16()
		if !containsPart(t.Parts, o.Part) {
			return Txn{}, ErrBadTxn
		}
		o.Key = r.Str()
		switch t.Kind {
		case KindPut:
			o.Value = bytes.Clone(r.Bytes())
		case KindCAS:
			if r.Bool() {
				o.Expect = bytes.Clone(r.Bytes())
			}
			if r.Bool() {
				o.Value = bytes.Clone(r.Bytes())
			}
		case KindTransfer:
			o.Delta = int64(r.U64())
		}
	}
	if r.Done() != nil {
		return Txn{}, ErrBadTxn
	}
	return t, nil
}

// EncodeResult serializes a participant reply canonically.
func EncodeResult(res Result) []byte {
	w := msg.Writer{Buf: make([]byte, 0, 32)}
	w.U8(res.Outcome)
	w.U32(uint32(len(res.Reads)))
	for _, kr := range res.Reads {
		w.Str(kr.Key)
		w.Bool(kr.Found)
		if kr.Found {
			w.Bytes(kr.Value)
		}
	}
	return w.Buf
}

// DecodeResult parses a participant reply, enforcing canonical form.
// Values are copies, never aliases of b.
func DecodeResult(b []byte) (Result, error) {
	var res Result
	r := msg.NewReader(b)
	res.Outcome = r.U8()
	if res.Outcome == 0 || res.Outcome > OutcomeNotInvolved {
		return Result{}, ErrBadTxn
	}
	n := r.Count(int(r.U32()), 3)
	res.Reads = make([]KeyRead, n)
	for i := range res.Reads {
		kr := &res.Reads[i]
		kr.Key = r.Str()
		if kr.Found = r.Bool(); kr.Found {
			kr.Value = bytes.Clone(r.Bytes())
		}
	}
	if r.Done() != nil {
		return Result{}, ErrBadTxn
	}
	return res, nil
}

// EncodeBalance renders a 64-bit signed account balance as a stored
// value; DecodeBalance reads one back (absent or malformed values count
// as zero, so transfers create accounts on first touch).
func EncodeBalance(v int64) []byte {
	w := msg.Writer{Buf: make([]byte, 0, 8)}
	w.U64(uint64(v))
	return w.Buf
}

// DecodeBalance parses a stored balance; anything but exactly 8 bytes is
// treated as a zero balance.
func DecodeBalance(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return int64(v)
}

// Validate checks the client-side invariants Encode relies on: a known
// kind, at least one op, sorted unique parts covering exactly the ops'
// assignments.
func (t Txn) Validate() error {
	if t.Kind == 0 || t.Kind >= maxKind {
		return fmt.Errorf("txn: unknown kind %d", t.Kind)
	}
	if len(t.Ops) == 0 {
		return errors.New("txn: no operations")
	}
	for i := 1; i < len(t.Parts); i++ {
		if t.Parts[i] <= t.Parts[i-1] {
			return errors.New("txn: participant set not sorted")
		}
	}
	for _, o := range t.Ops {
		if !containsPart(t.Parts, o.Part) {
			return fmt.Errorf("txn: op on key %q assigned to unlisted partition %d", o.Key, o.Part)
		}
	}
	return nil
}

func containsPart(parts []uint16, p uint16) bool {
	for _, q := range parts {
		if q == p {
			return true
		}
	}
	return false
}
