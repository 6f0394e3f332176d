package storage

import (
	"sync"

	"mrp/internal/msg"
)

// Checkpoint is one replica checkpoint: the tuple k_p identifying it (one
// entry per subscribed multicast group, ordered by group identifier —
// Predicate 1 of the paper) and the serialized service state.
type Checkpoint struct {
	Tuple []msg.RingInstance
	State []byte
}

// TupleLE reports a <= b pointwise over the rings both tuples mention.
// Checkpoint tuples of replicas in the same partition are totally ordered
// (Predicate 1 establishes this), so pointwise comparison is a total order
// within a partition. Recovery decisions hang off this comparison, so
// every replica must evaluate it identically.
//
//mrp:deterministic
func TupleLE(a, b []msg.RingInstance) bool {
	bi := make(map[msg.RingID]msg.Instance, len(b))
	for _, e := range b {
		bi[e.Ring] = e.Instance
	}
	for _, e := range a {
		if other, ok := bi[e.Ring]; ok && e.Instance > other {
			return false
		}
	}
	return true
}

// TupleGet returns the instance recorded for a ring in a tuple (0 if none).
func TupleGet(tuple []msg.RingInstance, ring msg.RingID) msg.Instance {
	for _, e := range tuple {
		if e.Ring == ring {
			return e.Instance
		}
	}
	return 0
}

// CheckpointStore persists a replica's checkpoints to stable storage.
// Writes are synchronous (the paper's replicas write checkpoints
// synchronously to disk so acceptors may trim their logs afterwards,
// Section 7.2). Only the most recent checkpoint is retained.
type CheckpointStore struct {
	disk *Disk

	mu   sync.Mutex
	last *Checkpoint
}

// NewCheckpointStore creates a store backed by the given device (use
// NewDisk(NullDisk) for latency-free tests).
func NewCheckpointStore(disk *Disk) *CheckpointStore {
	return &CheckpointStore{disk: disk}
}

// Save synchronously persists a checkpoint, replacing the previous one.
// The tuple is copied; the state slice is retained and must not be modified
// by the caller afterwards.
//
// Save is a persistence sink: the checkpoint bytes are fully determined
// before the call, and the simulated device timing below is free to read
// real clocks.
//
//mrp:nondeterministic
func (s *CheckpointStore) Save(ckpt Checkpoint) {
	tuple := make([]msg.RingInstance, len(ckpt.Tuple))
	copy(tuple, ckpt.Tuple)
	stored := Checkpoint{Tuple: tuple, State: ckpt.State}
	s.disk.SyncWrite(len(ckpt.State) + len(tuple)*10)
	s.mu.Lock()
	s.last = &stored
	s.mu.Unlock()
}

// Load returns the most recent checkpoint, or false if none was saved.
func (s *CheckpointStore) Load() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		return Checkpoint{}, false
	}
	return *s.last, true
}
