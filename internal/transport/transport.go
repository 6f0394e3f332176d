// Package transport defines the network abstraction shared by the simulated
// in-process network (internal/netsim) and the real TCP transport
// (internal/tcpnet). Ring Paxos and everything above it is written against
// these interfaces only, so the same protocol code runs both in simulation
// and on real sockets.
package transport

import (
	"errors"

	"mrp/internal/msg"
)

// Addr identifies an endpoint. The simulated network uses structured names
// ("region/node-3"); the TCP transport uses host:port strings.
type Addr string

// Envelope is a received message together with its sender.
type Envelope struct {
	From Addr
	Msg  msg.Message
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// BatchPolicy controls transport-level write coalescing: when a sender's
// per-destination queue holds more than one message, the transport packs the
// backlog into a single msg.Batch and writes it as one packet, amortizing
// per-message framing, syscall, and bandwidth-serialization overhead (paper
// Section 4: "different types of messages ... are often grouped into bigger
// packets before being forwarded").
//
// The zero value enables coalescing within DefaultBatchBytes and
// DefaultBatchCount. Coalescing never delays a message: a batch is exactly
// the backlog present when the sender loop dequeues, so an idle queue
// still sends immediately.
type BatchPolicy struct {
	// Disabled turns coalescing off: every message travels in its own
	// packet (the paper's Figure 3 baseline behavior).
	Disabled bool
}

// Coalescing bounds: one packet carries at most DefaultBatchCount messages
// and DefaultBatchBytes of encoded batch; a message beyond either bound
// starts the next packet.
const (
	DefaultBatchBytes = 256 << 10
	DefaultBatchCount = 128
)

// Endpoint is one node's attachment to a network.
//
// Send is asynchronous and never blocks on the remote node; messages between
// a fixed (sender, receiver) pair are delivered FIFO, like a TCP connection.
// Messages must be treated as immutable once sent: the simulated network
// passes pointers without copying, so a handler that wants to modify and
// forward a message (e.g. incrementing the vote count of a Phase 2A/2B)
// must forward a copy.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() Addr
	// Send enqueues m for delivery to the endpoint at 'to'. Sends to unknown
	// or crashed endpoints are silently dropped, as on a real network.
	Send(to Addr, m msg.Message) error
	// Handle passes every received message to fn on the goroutine that
	// received it, starting with those waiting in the inbox, in order.
	// Messages from one sender reach fn in order; messages from different
	// senders may reach it concurrently, so fn must be goroutine-safe and
	// should not block. Long-lived receivers (a node's router, a client)
	// use Handle; a short conversation that waits for particular replies
	// reads Inbox instead. Call it at most once.
	Handle(fn func(Envelope))
	// Inbox returns the channel of messages received before Handle, or
	// without it. It is closed when the endpoint is closed.
	Inbox() <-chan Envelope
	// Close detaches the endpoint; pending and future messages are dropped
	// and, once Close returns, nothing more reaches the handler.
	Close() error
}
