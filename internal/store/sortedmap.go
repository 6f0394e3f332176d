// Package store implements MRP-Store, the strongly consistent partitioned
// key-value service of the paper (Section 6.1): keys are strings, values
// byte arrays, the database is divided into partitions replicated with
// state-machine replication over Multi-Ring Paxos. Single-key requests are
// multicast to the partition owning the key; range scans are multicast to
// all partitions that may hold matching keys (via a global ring all
// replicas subscribe to, or by fan-out when partitions run independent
// rings). The service provides sequential consistency.
package store

import (
	"math/rand"
	"sync"
)

// maxLevel bounds the skiplist height (supports ~2^32 entries).
const maxLevel = 32

// skipNode is one entry in the sorted map.
type skipNode struct {
	key   string
	value []byte
	next  []*skipNode
}

// SortedMap is an in-memory ordered map (a skiplist), the storage engine of
// an MRP-Store partition replica ("database entries are stored in an
// in-memory tree at every replica", Section 7.2). It supports point
// operations and ordered range scans. Safe for concurrent use.
type SortedMap struct {
	mu    sync.RWMutex
	head  *skipNode
	level int
	size  int
	bytes int // total key+value payload bytes currently stored
	rng   *rand.Rand
}

// NewSortedMap creates an empty map.
func NewSortedMap() *SortedMap {
	return &SortedMap{
		head:  &skipNode{next: make([]*skipNode, maxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(1)),
	}
}

// findPredecessors fills prev with the rightmost node before key per level.
func (m *SortedMap) findPredecessors(key string, prev *[maxLevel]*skipNode) *skipNode {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		prev[i] = x
	}
	return x.next[0]
}

// Get returns the value for key.
func (m *SortedMap) Get(key string) ([]byte, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
	}
	x = x.next[0]
	if x != nil && x.key == key {
		return x.value, true
	}
	return nil, false
}

// Put inserts or replaces key's value and reports whether the key existed.
func (m *SortedMap) Put(key string, value []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	var prev [maxLevel]*skipNode
	x := m.findPredecessors(key, &prev)
	if x != nil && x.key == key {
		m.bytes += len(value) - len(x.value)
		x.value = value
		return true
	}
	lvl := 1
	for lvl < maxLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	if lvl > m.level {
		for i := m.level; i < lvl; i++ {
			prev[i] = m.head
		}
		m.level = lvl
	}
	n := &skipNode{key: key, value: value, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = prev[i].next[i]
		prev[i].next[i] = n
	}
	m.size++
	m.bytes += len(key) + len(value)
	return false
}

// Delete removes key and reports whether it existed.
func (m *SortedMap) Delete(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	var prev [maxLevel]*skipNode
	x := m.findPredecessors(key, &prev)
	if x == nil || x.key != key {
		return false
	}
	for i := 0; i < m.level; i++ {
		if prev[i].next[i] == x {
			prev[i].next[i] = x.next[i]
		}
	}
	for m.level > 1 && m.head.next[m.level-1] == nil {
		m.level--
	}
	m.size--
	m.bytes -= len(x.key) + len(x.value)
	return true
}

// Len returns the number of entries.
func (m *SortedMap) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.size
}

// Bytes returns the total key+value payload bytes currently stored — the
// size half of the per-partition accounting the auto-sharding controller
// watches.
func (m *SortedMap) Bytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// Entry is one key-value pair.
type Entry struct {
	Key   string
	Value []byte
}

// Scan returns up to limit entries with from <= key <= to, in key order
// (limit <= 0 means unlimited). This implements the paper's
// scan(k, k') operation.
func (m *SortedMap) Scan(from, to string, limit int) []Entry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < from {
			x = x.next[i]
		}
	}
	x = x.next[0]
	var out []Entry
	for x != nil && (to == "" || x.key <= to) {
		out = append(out, Entry{Key: x.key, Value: x.value})
		if limit > 0 && len(out) >= limit {
			break
		}
		x = x.next[0]
	}
	return out
}

// Ascend calls fn for every entry in key order until fn returns false.
func (m *SortedMap) Ascend(fn func(Entry) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for x := m.head.next[0]; x != nil; x = x.next[0] {
		if !fn(Entry{Key: x.key, Value: x.value}) {
			return
		}
	}
}
