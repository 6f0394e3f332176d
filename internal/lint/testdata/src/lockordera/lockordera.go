// Package lockordera exercises the lock-order analyzer's in-package
// shapes: an opposite-order two-lock cycle and same-class nesting.
package lockordera

import "sync"

var (
	muA sync.Mutex
	muB sync.Mutex
)

// abOrder takes muA then muB. The cycle is reported once, at the edge
// leaving the lexicographically-first lock — this acquisition.
func abOrder() {
	muA.Lock()
	defer muA.Unlock()
	muB.Lock() // want "lock-order cycle: lockordera.muA → lockordera.muB → lockordera.muA"
	defer muB.Unlock()
}

// baOrder takes muB then muA: the opposite order that closes the cycle.
func baOrder() {
	muB.Lock()
	defer muB.Unlock()
	muA.Lock()
	muA.Unlock()
}

// sequential takes the same two locks but never nested: no edge, no
// finding.
func sequential() {
	muA.Lock()
	muA.Unlock()
	muB.Lock()
	muB.Unlock()
}

// Shard is a lock-per-shard table: nesting two instances of the same
// lock class deadlocks unless every path orders them identically.
type Shard struct {
	mu   sync.Mutex
	keys map[string]bool
}

// merge locks two shards of the same class.
func merge(a, b *Shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "same-class nesting"
	defer b.mu.Unlock()
	for k := range a.keys {
		b.keys[k] = true
	}
}
