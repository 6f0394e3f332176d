// Package lockedblocka exercises lockorder's blocking check: blocking
// operations under a held mutex, with the non-blocking and
// other-goroutine allowances.
package lockedblocka

import (
	"sync"
	"time"
)

type box struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
}

func (b *box) sendLocked() {
	b.mu.Lock()
	b.ch <- 1 // want "channel send while holding lockedblocka.box.mu"
	b.mu.Unlock()
}

func (b *box) sendAfterUnlock() {
	b.mu.Lock()
	b.mu.Unlock()
	b.ch <- 1
}

func (b *box) deferred() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want "channel receive while holding lockedblocka.box.mu"
}

func (b *box) nonBlocking() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- 1:
	default:
	}
}

func (b *box) blockingSelect() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want "select without default while holding lockedblocka.box.mu"
	case v := <-b.ch:
		_ = v
	}
}

func (b *box) sleepy() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding lockedblocka.box.mu"
	b.mu.Unlock()
}

func (b *box) waits() {
	b.mu.Lock()
	b.wg.Wait() // want "sync.WaitGroup.Wait while holding lockedblocka.box.mu"
	b.mu.Unlock()
}

func (b *box) spawns() {
	b.mu.Lock()
	go func() { b.ch <- 1 }()
	b.mu.Unlock()
}

func (b *box) branchUnlockReturn(x bool) {
	b.mu.Lock()
	if x {
		b.mu.Unlock()
		return
	}
	v := <-b.ch // want "channel receive while holding lockedblocka.box.mu"
	_ = v
	b.mu.Unlock()
}

// embedded locks through promotion are recognized too.
type embeds struct {
	sync.Mutex
	ch chan int
}

func (e *embeds) locked() {
	e.Lock()
	<-e.ch // want "channel receive while holding lockedblocka.embeds"
	e.Unlock()
}

type rw struct {
	mu sync.RWMutex
	ch chan int
}

func (r *rw) readLocked() {
	r.mu.RLock()
	<-r.ch // want "channel receive while holding lockedblocka.rw.mu"
	r.mu.RUnlock()
}

func (r *rw) justified() {
	r.mu.RLock()
	//mrp:nolint lockorder — buffered diagnostics channel sized for worst case
	r.ch <- 1
	r.mu.RUnlock()
}

// localMutex holds a function-local mutex: it has no lock class, so it
// adds nothing to the lock graph, but it is still held.
func localMutex(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	for range ch { // want "range over channel while holding mu"
	}
	mu.Unlock()
	for range ch {
	}
}
