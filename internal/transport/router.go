package transport

import (
	"sync"

	"mrp/internal/msg"
)

// Router demultiplexes an endpoint's messages: ring-scoped messages go to
// the Ring Paxos process registered for that ring, everything else goes to
// the service handler. Batches are unpacked before dispatch. The router
// has no goroutine of its own: Start registers dispatch with the
// endpoint's Handle, so each message is routed on the goroutine that
// received it.
//
// A node that participates in several rings (e.g. a learner subscribed to
// multiple multicast groups, Section 4 of the paper) runs one Router in
// front of its per-ring processes.
type Router struct {
	ep Endpoint

	// rings and service are written only before Start; registering
	// dispatch with the endpoint orders those writes before every read.
	rings   map[msg.RingID]chan<- Envelope
	service func(Envelope)

	stopOnce sync.Once
	done     chan struct{}
}

// NewRouter creates a router over ep. Call Start to begin dispatching.
func NewRouter(ep Endpoint) *Router {
	return &Router{
		ep:    ep,
		rings: make(map[msg.RingID]chan<- Envelope),
		done:  make(chan struct{}),
	}
}

// Ring registers the input channel of the process handling one ring. Must
// be called before Start.
func (r *Router) Ring(ring msg.RingID, ch chan<- Envelope) {
	r.rings[ring] = ch
}

// Service registers the handler for non-ring messages (checkpoint RPCs,
// client responses). The handler runs on the goroutine that received the
// message, possibly concurrently with itself for different senders, and
// must not block. Must be called before Start.
func (r *Router) Service(fn func(Envelope)) {
	r.service = fn
}

// Start routes the endpoint's messages, beginning with those already
// waiting in its inbox, and returns once those are dispatched.
func (r *Router) Start() {
	r.ep.Handle(r.dispatch)
}

// Stop makes dispatch drop every message, including a delivery blocked on
// a full ring channel. It does not close the endpoint.
func (r *Router) Stop() {
	r.stopOnce.Do(func() { close(r.done) })
}

func (r *Router) dispatch(env Envelope) {
	select {
	case <-r.done:
		return
	default:
	}
	if b, ok := env.Msg.(*msg.Batch); ok {
		for _, sub := range b.Msgs {
			r.dispatch(Envelope{From: env.From, Msg: sub})
		}
		return
	}
	if ring, ok := msg.RingOf(env.Msg); ok {
		if ch := r.rings[ring]; ch != nil {
			select {
			case ch <- env:
			case <-r.done:
			}
		}
		return
	}
	if r.service != nil {
		r.service(env)
	}
}

// HandlerMux is a late-bound message handler: protocol layers that are
// constructed after the ring processes (e.g. a replica whose learner needs
// the processes to exist first) register themselves via Set, while the
// ring configuration references Handle from the start.
type HandlerMux struct {
	mu sync.RWMutex
	fn func(Envelope)
}

// Set installs the handler.
func (h *HandlerMux) Set(fn func(Envelope)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fn = fn
}

// Handle dispatches to the installed handler, dropping the message if none
// is installed yet.
func (h *HandlerMux) Handle(env Envelope) {
	h.mu.RLock()
	fn := h.fn
	h.mu.RUnlock()
	if fn != nil {
		fn(env)
	}
}
