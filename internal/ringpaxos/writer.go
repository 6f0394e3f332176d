package ringpaxos

import (
	"sync"

	"mrp/internal/msg"
	"mrp/internal/storage"
)

// The acceptor-log write runs off the event loop. The loop stages each
// record in place (storage.Log.Stage), so the index — and every later
// Phase 1B's votedIn — sees it at once, and hands the message that depends
// on it to the process's logWriter. The writer commits records one at a
// time, in the order they were staged, and returns each message to the
// loop, which then sends it. Invariants:
//
//	(a) No Phase 2, vote, decision or Phase 1B that this member originates
//	    leaves before every record queued ahead of it has committed:
//	    records and promises share one FIFO, and the loop runs the
//	    continuations in the order the writer returns them.
//	(b) Stage runs in loop order, so a Phase 1B promised after a vote was
//	    staged carries that vote in Voted, even if it is still committing.
//	(c) A coordinator's Phase 2 whose ballot was superseded while its
//	    record committed is not sent; retryTick re-proposes the instance
//	    from inflight at the current ballot.
//	(d) Stop returns only after the writer goroutine has exited.
//
// Only a log in a sync mode waits for the device on every write, so only
// it gets a writer. An InMemory log never waits, and an async one only
// when its write-back buffer is full; the loop commits their records
// inline (nothing for InMemory, a buffered write that may block for an
// async log, as Put did) and then runs the continuation, with no
// goroutine hop and no allocation, and the BatchDelay ticker cuts their
// batches.

// afterCommit is a message held back until a staged record is durable:
// the coordinator's own Phase 2, an acceptor's vote (a Phase 2 with its
// Votes already counted), or a Phase 1B carrying a promise.
type afterCommit struct {
	n int // bytes storage.Log.Commit charges
	m msg.Message
}

// promiseBytes is what the device is charged for persisting a promise.
const promiseBytes = 16

// logWriter commits staged records in FIFO order on its own goroutine and
// hands each continuation back to the loop on done.
type logWriter struct {
	log *storage.Log

	mu    sync.Mutex
	queue []afterCommit

	wake chan struct{} // capacity 1: the queue became non-empty
	// done holds committed continuations for the loop. Its buffer lets the
	// writer start the next commit while the loop is busy elsewhere; when
	// it is full the writer only waits, since the loop never blocks on
	// the writer (push does not block).
	done   chan afterCommit
	exited chan struct{}
}

func newLogWriter(log *storage.Log) *logWriter {
	return &logWriter{
		log:    log,
		wake:   make(chan struct{}, 1),
		done:   make(chan afterCommit, 1024),
		exited: make(chan struct{}),
	}
}

// push queues a continuation behind every record staged before it. It
// never blocks, so the loop and the writer cannot wait on each other.
func (w *logWriter) push(c afterCommit) {
	w.mu.Lock()
	w.queue = append(w.queue, c)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// run commits queued records until stop closes.
func (w *logWriter) run(stop <-chan struct{}) {
	defer close(w.exited)
	for {
		w.mu.Lock()
		if len(w.queue) == 0 {
			w.mu.Unlock()
			select {
			case <-w.wake:
				continue
			case <-stop:
				return
			}
		}
		c := w.queue[0]
		w.queue[0] = afterCommit{}
		w.queue = w.queue[1:]
		w.mu.Unlock()
		w.log.Commit(c.n)
		select {
		case w.done <- c:
		case <-stop:
			return
		}
	}
}

// persist runs c once its record is durable: after an inline Commit when
// the process has no writer (in-memory and async logs), otherwise when the
// writer hands it back.
func (p *Process) persist(c afterCommit) {
	if p.writer == nil {
		if p.cfg.Log != nil {
			p.cfg.Log.Commit(c.n)
		}
		p.complete(c)
		return
	}
	p.writing++
	p.writer.push(c)
}

// complete sends what a committed record was holding back.
func (p *Process) complete(c afterCommit) {
	switch m := c.m.(type) {
	case *msg.Phase2:
		owner := coordIdxOf(m.Ballot, p.n)
		if owner == p.selfIdx && (!p.isCoord || m.Ballot != p.ballot) {
			return // our Phase 2, superseded while committing: retryTick re-proposes
		}
		if p.lastAcceptorIdx(owner) == p.selfIdx && int(m.Votes) >= p.maj {
			// The last acceptor's vote made the majority (for our own
			// Phase 2: a single-acceptor ring).
			p.decide(m.Instance, m.Value)
			return
		}
		p.forward(m)
	case *msg.Phase1B:
		if p.n == 1 {
			p.handlePhase1B(m) // our own Phase 1, complete at once
			return
		}
		p.forward(m)
	}
}
