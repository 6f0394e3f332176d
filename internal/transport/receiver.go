package transport

import "sync"

// Receiver is the receive half both transports share. Until a handler is
// registered with Handle, received messages queue in the inbox; from then
// on each one is passed to the handler on the goroutine that received it
// (a netsim link, a tcpnet connection), so there is no hand-off to a
// reader goroutine. One goroutine delivers all of a sender's messages in
// order, which keeps them FIFO per sender.
type Receiver struct {
	inbox chan Envelope
	done  chan struct{}

	mu     sync.Mutex
	closed bool
	fn     func(Envelope)
	// draining is open while Handle empties the inbox. Deliveries that
	// see the handler wait on it, so a sender's queued messages reach the
	// handler before its later ones.
	draining chan struct{}
	queued   sync.WaitGroup // deliveries pushing into the inbox
	inflight sync.WaitGroup // deliveries and Handle's drain in progress
}

// NewReceiver creates a receiver whose inbox buffers size messages.
func NewReceiver(size int) *Receiver {
	return &Receiver{inbox: make(chan Envelope, size), done: make(chan struct{})}
}

// Inbox returns the queue of messages received while no handler is
// registered. It is closed by Close.
func (r *Receiver) Inbox() <-chan Envelope { return r.inbox }

// Done is closed when Close begins.
func (r *Receiver) Done() <-chan struct{} { return r.done }

// Closed reports whether Close was called.
func (r *Receiver) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Deliver passes env to the handler, or queues it in the inbox when none
// is registered; a full inbox blocks, backpressuring the sender. It
// reports false once the receiver is closed.
func (r *Receiver) Deliver(env Envelope) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	fn, draining := r.fn, r.draining
	r.inflight.Add(1)
	if fn == nil {
		r.queued.Add(1)
	}
	r.mu.Unlock()
	ok := true
	if fn == nil {
		select {
		case r.inbox <- env:
		case <-r.done:
			ok = false
		}
		r.queued.Done()
	} else {
		if draining != nil {
			select {
			case <-draining:
			case <-r.done:
				ok = false
			}
		}
		if ok {
			fn(env)
		}
	}
	r.inflight.Done()
	return ok
}

// Handle registers fn, which must be safe to call from several goroutines
// at once. It first passes fn the messages waiting in the inbox, in the
// order they arrived, and returns once they are delivered; every later
// message goes to fn directly. Handle may be called once.
func (r *Receiver) Handle(fn func(Envelope)) {
	draining := make(chan struct{})
	r.mu.Lock()
	if r.fn != nil {
		r.mu.Unlock()
		panic("transport: Handle called twice")
	}
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.fn, r.draining = fn, draining
	r.inflight.Add(1)
	r.mu.Unlock()

	// No push into the inbox starts after fn is set; once the ones in
	// progress finish, the inbox holds everything that is left.
	idle := make(chan struct{})
	go func() {
		r.queued.Wait()
		close(idle)
	}()
	for drained := false; !drained; {
		select {
		case env := <-r.inbox:
			fn(env)
		case <-idle:
			drained = true
			for more := true; more; {
				select {
				case env := <-r.inbox:
					fn(env)
				default:
					more = false
				}
			}
		case <-r.done:
			drained = true
		}
	}
	r.mu.Lock()
	r.draining = nil
	r.mu.Unlock()
	close(draining)
	r.inflight.Done()
}

// Close stops delivery, waits for the deliveries in progress and closes
// the inbox. Nothing reaches the handler after Close returns. Closing
// again does nothing.
func (r *Receiver) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.done)
	r.inflight.Wait()
	close(r.inbox)
}
