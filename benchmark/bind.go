package main

import (
	"mrp/internal/transport"
)

// binder attaches the endpoints of a deployment's processes before any of
// them starts, the way servers bind their sockets before they talk. Deploy
// starts each ring coordinator, which opens Phase 1 at once, before the
// coordinator's ring successor exists; a message to an address nobody has
// bound is dropped, and Phase 1 then waits out the 100 ms retry timer — or
// does not, depending on how the goroutines were scheduled. With every
// address bound first the message waits in the successor's inbox instead,
// so set-up time and the start-up offset between rings are the same run
// after run.
type binder struct {
	t     *tap
	fresh func(transport.Addr) (transport.Endpoint, error)
	bound map[transport.Addr]transport.Endpoint
}

func newBinder(t *tap, fresh func(transport.Addr) (transport.Endpoint, error)) *binder {
	return &binder{t: t, fresh: fresh, bound: make(map[transport.Addr]transport.Endpoint)}
}

// bind attaches an endpoint under the name it was asked for and returns the
// address it got (a TCP listener's address is chosen by the kernel).
func (b *binder) bind(name transport.Addr) (transport.Addr, error) {
	ep, err := b.fresh(name)
	if err != nil {
		return "", err
	}
	b.bound[ep.Addr()] = ep
	return ep.Addr(), nil
}

// endpointFor is the deployment's EndpointFor: it hands out the endpoint
// bound for an address once, and attaches a new one for every other request
// (lease managers, recovery conversations, a recovered replica).
func (b *binder) endpointFor(a transport.Addr) (transport.Endpoint, error) {
	if ep, ok := b.bound[a]; ok {
		delete(b.bound, a)
		return b.t.wrap(ep, false), nil
	}
	ep, err := b.fresh(a)
	if err != nil {
		return nil, err
	}
	return b.t.wrap(ep, false), nil
}

// session attaches a client's endpoint.
func (b *binder) session(name transport.Addr) (transport.Endpoint, error) {
	ep, err := b.fresh(name)
	if err != nil {
		return nil, err
	}
	return b.t.wrap(ep, true), nil
}

// closeUnclaimed closes what a failed set-up bound and never handed out.
func (b *binder) closeUnclaimed() {
	for a, ep := range b.bound {
		_ = ep.Close()
		delete(b.bound, a)
	}
}
