// Package tcpnet implements the transport abstraction over real TCP
// sockets, so the same Ring Paxos / Multi-Ring Paxos code that runs in the
// simulator (internal/netsim) runs across actual machines. The paper's
// implementation likewise bases all communication within Multi-Ring Paxos
// on TCP (Section 7.1).
//
// Framing: each frame is a 4-byte big-endian length followed by the
// msg.Marshal encoding of one message. The first frame on every outbound
// connection is a handshake carrying the sender's advertised (listen)
// address, so receivers can attribute envelopes to stable peer addresses
// rather than ephemeral ports.
//
// Write coalescing: unless disabled by the endpoint's transport.BatchPolicy,
// the send loop drains its per-destination queue and packs the backlog into
// a single msg.Batch frame, so a burst of small protocol messages costs one
// frame and one syscall instead of one each (paper Section 4). Batches are
// unpacked on the receive side: the handler always sees individual
// messages, whether or not the peer coalesces. Each connection's read loop
// calls the handler registered with Handle itself.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// maxFrame bounds a single frame (64 MB). Send rejects messages that cannot
// fit one frame with ErrMessageTooLarge, since the receiver would kill the
// connection on an oversized header.
const maxFrame = 64 << 20

// ErrMessageTooLarge reports a message whose encoding exceeds maxFrame.
var ErrMessageTooLarge = errors.New("tcpnet: message exceeds max frame size")

// Endpoint is a TCP-backed transport endpoint.
type Endpoint struct {
	ln    net.Listener
	addr  transport.Addr
	recv  *transport.Receiver
	batch transport.BatchPolicy

	mu     sync.Mutex
	conns  map[transport.Addr]*outConn
	closed bool

	wg sync.WaitGroup
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Option configures an Endpoint.
type Option func(*Endpoint)

// WithBatch sets the endpoint's write-coalescing policy. The default is the
// zero transport.BatchPolicy: coalescing enabled within the transport's
// DefaultBatchBytes and DefaultBatchCount.
func WithBatch(p transport.BatchPolicy) Option {
	return func(e *Endpoint) { e.batch = p }
}

// outConn is an outbound connection with a send queue.
type outConn struct {
	ch   chan msg.Message
	done chan struct{}
}

// Listen creates an endpoint listening on addr ("host:port"; use ":0" for
// an ephemeral port and read the bound address with Addr).
func Listen(addr string, opts ...Option) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: %w", err)
	}
	e := &Endpoint{
		ln:    ln,
		addr:  transport.Addr(ln.Addr().String()),
		recv:  transport.NewReceiver(4096),
		conns: make(map[transport.Addr]*outConn),
	}
	for _, o := range opts {
		o(e)
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr implements transport.Endpoint.
func (e *Endpoint) Addr() transport.Addr { return e.addr }

// Inbox implements transport.Endpoint.
func (e *Endpoint) Inbox() <-chan transport.Envelope { return e.recv.Inbox() }

// Handle implements transport.Endpoint.
func (e *Endpoint) Handle(fn func(transport.Envelope)) { e.recv.Handle(fn) }

// Send implements transport.Endpoint: messages are queued on a
// per-destination connection and serialized by its send loop; delivery is
// FIFO per destination. Failures drop the queued messages (crash
// semantics); the next Send redials.
func (e *Endpoint) Send(to transport.Addr, m msg.Message) error {
	if m.Size() > maxFrame {
		// Reject here so the failure surfaces at the call site instead of
		// a silent drop in the send loop (e.g. an oversized CkptData would
		// otherwise stall recovery with no error anywhere).
		return ErrMessageTooLarge
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return transport.ErrClosed
	}
	oc, ok := e.conns[to]
	if !ok {
		oc = &outConn{ch: make(chan msg.Message, 1024), done: make(chan struct{})}
		e.conns[to] = oc
		e.wg.Add(1)
		go e.sendLoop(to, oc)
	}
	e.mu.Unlock()
	select {
	case oc.ch <- m:
		return nil
	case <-oc.done:
		return nil // connection failed: dropped, like a broken TCP link
	case <-e.recv.Done():
		return transport.ErrClosed
	}
}

// appendFrame appends the length-prefixed encoding of m to dst.
func appendFrame(dst []byte, m msg.Message) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Size()))
	return msg.MarshalTo(dst, m)
}

// appendBatchFrame appends one length-prefixed msg.Batch frame packing msgs.
func appendBatchFrame(dst []byte, msgs []msg.Message) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(msg.BatchSize(msgs)))
	return msg.AppendBatch(dst, msgs)
}

// collectBatch drains ch without blocking, appending to batch (which already
// holds its first message) until the policy's count bound, the byte budget,
// or an empty queue stops it. size is the encoded msg.Batch size of the
// current batch. It returns the extended batch and the message that
// overflowed the budget (to lead the next batch), if any.
func collectBatch(ch <-chan msg.Message, batch []msg.Message, size, maxCount, maxBytes int) (out []msg.Message, carry msg.Message) {
	for len(batch) < maxCount {
		select {
		case m := <-ch:
			if size+4+m.Size() > maxBytes {
				return batch, m
			}
			batch = append(batch, m)
			size += 4 + m.Size()
		default:
			return batch, nil
		}
	}
	return batch, nil
}

// sendLoop owns one outbound connection: it drains the queue, coalesces the
// backlog into Batch frames, and writes through a buffered writer that is
// flushed only when the queue is empty, so consecutive frames share
// syscalls. The encode buffer is pooled and reused across frames.
func (e *Endpoint) sendLoop(to transport.Addr, oc *outConn) {
	defer e.wg.Done()
	defer func() {
		close(oc.done)
		e.mu.Lock()
		if e.conns[to] == oc {
			delete(e.conns, to)
		}
		e.mu.Unlock()
	}()
	conn, err := net.Dial("tcp", string(to))
	if err != nil {
		return
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 64<<10)
	buf := msg.GetBuffer()
	defer msg.PutBuffer(buf)
	// Handshake: advertise our stable address.
	*buf = appendFrame((*buf)[:0], &msg.Proposal{Payload: []byte(e.addr)})
	if _, err := bw.Write(*buf); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	var (
		pending []msg.Message
		carry   msg.Message
	)
	for {
		var m msg.Message
		if carry != nil {
			m, carry = carry, nil
		} else {
			select {
			case m = <-oc.ch:
			case <-e.recv.Done():
				return
			}
		}
		pending = append(pending[:0], m)
		if !e.batch.Disabled {
			pending, carry = collectBatch(oc.ch, pending, msg.BatchSize(pending), transport.DefaultBatchCount, transport.DefaultBatchBytes)
		}
		*buf = (*buf)[:0]
		if len(pending) > 1 {
			*buf = appendBatchFrame(*buf, pending)
		} else {
			// Single messages fit maxFrame by construction: Send rejects
			// oversized ones before they reach the queue.
			*buf = appendFrame(*buf, pending[0])
		}
		if _, err := bw.Write(*buf); err != nil {
			return
		}
		// With coalescing disabled every message must pay its own packet:
		// flush per frame rather than amortizing syscalls across a backlog,
		// so the unbatched baseline measures what it claims to.
		if e.batch.Disabled || (carry == nil && len(oc.ch) == 0) {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	var from transport.Addr
	first := true
	for {
		m, err := readFrame(conn)
		if err != nil {
			return
		}
		if first {
			first = false
			hello, ok := m.(*msg.Proposal)
			if !ok {
				return // protocol violation
			}
			from = transport.Addr(hello.Payload)
			continue
		}
		// Unpack transport-level batches: the handler sees individual
		// messages whether or not the peer coalesces. A handler that
		// blocks, or a full inbox, backpressures the TCP stream; Deliver
		// reports false once the endpoint closes, so the loop unwinds.
		if b, ok := m.(*msg.Batch); ok {
			for _, sub := range b.Msgs {
				if !e.recv.Deliver(transport.Envelope{From: from, Msg: sub}) {
					return
				}
			}
			continue
		}
		if !e.recv.Deliver(transport.Envelope{From: from, Msg: m}) {
			return
		}
	}
}

func readFrame(r io.Reader) (msg.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, errors.New("tcpnet: bad frame length")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return msg.Unmarshal(body)
}

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.conns = map[transport.Addr]*outConn{}
	e.mu.Unlock()
	// Closing the receiver (never oc.ch: a concurrent Send may be
	// mid-enqueue) releases sendLoops waiting on their queues and readLoops
	// blocked on a full inbox, and waits for the deliveries in progress;
	// queued messages are dropped, per the transport contract.
	_ = e.ln.Close()
	e.recv.Close()
	return nil
}
