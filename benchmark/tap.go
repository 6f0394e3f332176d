package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mrp/internal/msg"
	"mrp/internal/smr"
	"mrp/internal/transport"
)

// tap is the message-boundary trace: a wrapper around every
// transport.Endpoint of a deployment that, while switched on, counts each
// Send by message type and stamps the four messages that bound the stages
// of an ordered command:
//
//	client Proposal ──intake──▶ coordinator's first Phase2 carrying it
//	                ──round───▶ first Decision of that instance
//	                ──deliver+exec──▶ first Response to one of its commands
//
// One proposal in sampleEvery is followed (a span); the rest are only
// counted. The tap copies scalar fields inside Send and never keeps a
// msg.Message: replies live in an arena the executor reuses.
type tap struct {
	on atomic.Bool

	msgs, bytes, sendNs atomic.Uint64
	byType              [msg.TLeaseReply + 1]atomic.Uint64

	mu    sync.RWMutex
	props map[propID]*span // sampled proposals by (ring, proposer, seq)
	insts map[instID][]*span
	cmds  map[cmdID]*span
	spans []*span
	// ops holds copies of the state-machine operations carried by sampled
	// proposals, per ring, for the single-node replay microbenchmarks.
	ops map[msg.RingID][][]byte
}

const (
	sampleEvery = 8
	// maxCapturedOps bounds the operations kept per ring for replay.
	maxCapturedOps = 4096
)

type propID struct {
	ring     msg.RingID
	proposer msg.NodeID
	seq      uint64
}

type instID struct {
	ring msg.RingID
	inst msg.Instance
}

type cmdID struct{ client, seq uint64 }

// span is one followed proposal. The stage boundaries are the first time
// each message was seen; zero means not seen.
type span struct {
	id                                     propID
	proposal, phase2, decision, response   time.Time
	retransmitted                          bool // the client re-sent it
	phase2From, decisionFrom, responseFrom transport.Addr
}

func spanName(id propID) string {
	return fmt.Sprintf("ring%d/proposer%d/seq%d", id.ring, id.proposer, id.seq)
}

func newTap() *tap {
	return &tap{
		props: make(map[propID]*span),
		insts: make(map[instID][]*span),
		cmds:  make(map[cmdID]*span),
		ops:   make(map[msg.RingID][][]byte),
	}
}

// sampled decides from the proposal identity alone whether a proposal is
// followed, so that Phase2 entries can be tested without taking the lock.
func sampled(proposer msg.NodeID, seq uint64) bool {
	return (uint64(proposer)*0x9E3779B97F4A7C15+seq*0xC2B2AE3D27D4EB4F)>>32%sampleEvery == 0
}

// tapEndpoint forwards to the wrapped endpoint. session marks an endpoint
// that belongs to a benchmark client: only proposals entering the system
// there start a span (ring members forward proposals too).
type tapEndpoint struct {
	transport.Endpoint
	t       *tap
	session bool
}

// wrap returns ep unchanged when t is nil (untraced runs carry no wrapper).
func (t *tap) wrap(ep transport.Endpoint, session bool) transport.Endpoint {
	if t == nil {
		return ep
	}
	return &tapEndpoint{Endpoint: ep, t: t, session: session}
}

func (e *tapEndpoint) Send(to transport.Addr, m msg.Message) error {
	if !e.t.on.Load() {
		return e.Endpoint.Send(to, m)
	}
	start := time.Now()
	e.t.observe(start, e.Addr(), e.session, m)
	err := e.Endpoint.Send(to, m)
	e.t.sendNs.Add(uint64(time.Since(start)))
	return err
}

func (t *tap) observe(now time.Time, from transport.Addr, session bool, m msg.Message) {
	t.msgs.Add(1)
	t.bytes.Add(uint64(m.Size()))
	if ty := m.Type(); int(ty) < len(t.byType) {
		t.byType[ty].Add(1)
	}
	switch m := m.(type) {
	case *msg.Proposal:
		if session && sampled(m.ProposerID, m.Seq) {
			t.onProposal(now, m)
		}
	case *msg.Phase2:
		for i := range m.Value.Batch {
			e := &m.Value.Batch[i]
			if sampled(e.Proposer, e.Seq) {
				t.onPhase2(now, from, m.Ring, m.Instance, e.Proposer, e.Seq)
			}
		}
	case *msg.Decision:
		t.onDecision(now, from, m.Ring, m.Instance)
	case *msg.Response:
		t.onResponse(now, from, m.ClientID, m.Seq)
	}
}

func (t *tap) onProposal(now time.Time, m *msg.Proposal) {
	id := propID{m.Ring, m.ProposerID, m.Seq}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.props[id]; s != nil {
		s.retransmitted = true
		return
	}
	var cmds []smr.Command
	if smr.IsBatch(m.Payload) {
		cmds, _ = smr.DecodeBatch(m.Payload)
	} else if c, err := smr.DecodeCommand(m.Payload); err == nil {
		cmds = []smr.Command{c}
	}
	if len(cmds) == 0 {
		return
	}
	s := &span{id: id, proposal: now}
	t.props[id] = s
	t.spans = append(t.spans, s)
	for _, c := range cmds {
		// A command multicast to several rings keeps its first span.
		if _, dup := t.cmds[cmdID{c.ClientID, c.Seq}]; !dup {
			t.cmds[cmdID{c.ClientID, c.Seq}] = s
		}
		if len(t.ops[m.Ring]) < maxCapturedOps {
			t.ops[m.Ring] = append(t.ops[m.Ring], append([]byte(nil), c.Op...))
		}
	}
}

func (t *tap) onPhase2(now time.Time, from transport.Addr, ring msg.RingID, inst msg.Instance, proposer msg.NodeID, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.props[propID{ring, proposer, seq}]
	if s == nil || !s.phase2.IsZero() {
		return // not followed, or a forwarded / re-proposed Phase2
	}
	s.phase2, s.phase2From = now, from
	t.insts[instID{ring, inst}] = append(t.insts[instID{ring, inst}], s)
}

func (t *tap) onDecision(now time.Time, from transport.Addr, ring msg.RingID, inst msg.Instance) {
	id := instID{ring, inst}
	t.mu.RLock()
	_, followed := t.insts[id]
	t.mu.RUnlock()
	if !followed {
		return
	}
	t.mu.Lock()
	for _, s := range t.insts[id] {
		if s.decision.IsZero() {
			s.decision, s.decisionFrom = now, from
		}
	}
	t.mu.Unlock()
}

func (t *tap) onResponse(now time.Time, from transport.Addr, client, seq uint64) {
	id := cmdID{client, seq}
	t.mu.RLock()
	s := t.cmds[id]
	t.mu.RUnlock()
	if s == nil {
		return
	}
	t.mu.Lock()
	if s.response.IsZero() {
		s.response, s.responseFrom = now, from
	}
	t.mu.Unlock()
}

// stages are the medians of the joined spans.
type stages struct {
	spans                                int // complete spans joined
	intake, round, deliverExec, inSystem time.Duration
}

// join computes the stage medians over every complete span whose ring
// passes keep. A span is complete when all four boundaries were seen in
// order; a proposal the client had to re-send is left out, because its
// intake would measure the retry timer and not the system.
func (t *tap) join(keep func(msg.RingID) bool) stages {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var intake, round, deliver, total []time.Duration
	for _, s := range t.spans {
		if !keep(s.id.ring) || s.retransmitted {
			continue
		}
		if s.phase2.IsZero() || s.decision.IsZero() || s.response.IsZero() {
			continue
		}
		// The last acceptor learns its own decision before it forwards it,
		// so its replica's Response can be stamped a moment before the
		// Decision's first Send: that stage is then zero, not negative.
		d := s.response.Sub(s.decision)
		if d < 0 {
			d = 0
		}
		intake = append(intake, s.phase2.Sub(s.proposal))
		round = append(round, s.decision.Sub(s.phase2))
		deliver = append(deliver, d)
		total = append(total, s.response.Sub(s.proposal))
	}
	med := func(d []time.Duration) time.Duration {
		sortDurations(d)
		return percentile(d, 0.5)
	}
	return stages{
		spans:       len(total),
		intake:      med(intake),
		round:       med(round),
		deliverExec: med(deliver),
		inSystem:    med(total),
	}
}

// capturedOps returns the operations captured on one ring.
func (t *tap) capturedOps(ring msg.RingID) [][]byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ops[ring]
}

// spanRecord is the written-out form of a span: one record per stage, each
// naming the stage before it as its parent, all sharing the proposal id.
type spanRecord struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	At      string `json:"at"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// records flattens the followed spans, oldest first, with times relative
// to origin.
func (t *tap) records(origin time.Time) []spanRecord {
	t.mu.RLock()
	defer t.mu.RUnlock()
	spans := append([]*span(nil), t.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].proposal.Before(spans[j].proposal) })
	var out []spanRecord
	for _, s := range spans {
		id := spanName(s.id)
		bounds := []struct {
			name string
			at   transport.Addr
			t    time.Time
		}{
			{"ringpaxos.intake", s.phase2From, s.phase2},
			{"ringpaxos.round", s.decisionFrom, s.decision},
			{"smr.deliver_exec", s.responseFrom, s.response},
		}
		prev, parent := s.proposal, ""
		for _, b := range bounds {
			if b.t.IsZero() {
				break
			}
			out = append(out, spanRecord{
				ID: id, Name: b.name, Parent: parent, At: string(b.at),
				StartNs: prev.Sub(origin).Nanoseconds(), EndNs: b.t.Sub(origin).Nanoseconds(),
			})
			prev, parent = b.t, b.name
		}
	}
	return out
}
