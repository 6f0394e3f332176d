// Package registry is the coordination service substituting for Zookeeper
// in the paper's deployment (Section 7.1: "Automatic ring management and
// configuration management is handled by Zookeeper").
//
// It keeps what nothing else holds yet: the rebalance coordinator's intent
// record (a configuration node) and the auto-sharding
// controller's leader election (ephemeral nodes tied to sessions). It is
// in-process and strongly consistent, which matches how a Zookeeper
// ensemble appears to its clients.
package registry

import (
	"sort"
	"strings"
	"sync"
)

type node struct {
	data      []byte
	ephemeral *Session // non-nil if the node dies with this session
}

// Registry is an in-process coordination service. The zero value is not
// usable; call New.
type Registry struct {
	mu    sync.Mutex
	nodes map[string]*node
	seq   uint64
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{nodes: make(map[string]*node)}
}

// Set creates or replaces a node.
func (r *Registry) Set(path string, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setLocked(path, data, nil)
}

func (r *Registry) setLocked(path string, data []byte, owner *Session) {
	r.nodes[path] = &node{data: append([]byte(nil), data...), ephemeral: owner}
}

// Get returns a node's data.
func (r *Registry) Get(path string) (data []byte, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), n.data...), true
}

// Delete removes a node if present.
func (r *Registry) Delete(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.nodes, path)
}

// Children returns the sorted paths of all nodes under prefix.
func (r *Registry) Children(prefix string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for p := range r.nodes {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Session groups ephemeral nodes that are deleted together when the session
// closes, modeling a process's Zookeeper session expiring on crash.
type Session struct {
	r  *Registry
	mu sync.Mutex

	paths  map[string]struct{}
	closed bool
}

// NewSession opens a session.
func (r *Registry) NewSession() *Session {
	return &Session{r: r, paths: make(map[string]struct{})}
}

// CreateEphemeral creates a node owned by the session. It returns false if
// the node already exists or the session is closed.
func (s *Session) CreateEphemeral(path string, data []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if _, ok := s.r.nodes[path]; ok {
		return false
	}
	s.r.setLocked(path, data, s)
	s.paths[path] = struct{}{}
	return true
}

// Close expires the session, deleting all its ephemeral nodes (this is how
// peers detect the process's failure).
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	paths := make([]string, 0, len(s.paths))
	for p := range s.paths {
		paths = append(paths, p)
	}
	s.mu.Unlock()
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	for _, p := range paths {
		if n, ok := s.r.nodes[p]; ok && n.ephemeral == s {
			delete(s.r.nodes, p)
		}
	}
}

// Election is a leader election under a path prefix, built on sequential
// ephemeral nodes as in the standard Zookeeper recipe: the candidate with
// the lowest sequence number leads; when its session expires the next
// candidate takes over.
type Election struct {
	r      *Registry
	prefix string
}

// NewElection creates an election rooted at prefix.
func (r *Registry) NewElection(prefix string) *Election {
	return &Election{r: r, prefix: prefix}
}

// Enroll registers a candidate under the election with the given session
// and returns its sequence number.
func (e *Election) Enroll(s *Session, candidate string) uint64 {
	e.r.mu.Lock()
	e.r.seq++
	seq := e.r.seq
	e.r.mu.Unlock()
	path := e.prefix + "/" + seqString(seq) + "-" + candidate
	s.CreateEphemeral(path, []byte(candidate))
	return seq
}

// Leader returns the current leader's candidate name, if any.
func (e *Election) Leader() (string, bool) {
	children := e.r.Children(e.prefix + "/")
	if len(children) == 0 {
		return "", false
	}
	data, ok := e.r.Get(children[0])
	if !ok {
		return "", false
	}
	return string(data), true
}

// seqString zero-pads so lexicographic order equals numeric order.
func seqString(seq uint64) string {
	const digits = 12
	buf := make([]byte, digits)
	for i := digits - 1; i >= 0; i-- {
		buf[i] = byte('0' + seq%10)
		seq /= 10
	}
	return string(buf)
}
