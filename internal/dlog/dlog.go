// Package dlog implements dLog, the distributed shared log service of the
// paper (Section 6.2): multiple concurrent writers append data to one or
// more logs atomically. Each log is a multicast group (ring); multi-append
// commands are multicast through a common ring all servers subscribe to,
// so appends spanning logs are ordered against everything else. Servers
// hold recent appends in an in-memory cache and write data to disk
// asynchronously (or synchronously, as in the Figure 5 comparison against
// Bookkeeper); trim flushes the cache up to a position.
package dlog

import (
	"errors"
	"slices"
	"sync"

	"mrp/internal/msg"
	"mrp/internal/storage"
)

// LogID identifies one shared log.
type LogID uint16

// Errors returned by the service.
var (
	// ErrTrimmed reports a read below the log's trim position.
	ErrTrimmed = errors.New("dlog: position trimmed")
	// ErrOutOfRange reports a read past the log's tail.
	ErrOutOfRange = errors.New("dlog: position beyond tail")
	errBadOp      = errors.New("dlog: bad encoding")
)

// opKind tags the dLog operations of Table 2.
type opKind byte

const (
	opAppend opKind = iota + 1
	opMultiAppend
	opRead
	opTrim
)

// op is one decoded dLog operation.
type op struct {
	kind opKind
	log  LogID
	logs []LogID // multi-append targets
	pos  uint64
	data []byte
}

func (o op) encode() []byte {
	w := msg.Writer{Buf: []byte{byte(o.kind)}}
	w.U16(uint16(o.log))
	w.U16(uint16(len(o.logs)))
	for _, l := range o.logs {
		w.U16(uint16(l))
	}
	w.U64(o.pos)
	w.Bytes(o.data)
	return w.Buf
}

// decodeOp parses what encode produces; data aliases b.
func decodeOp(b []byte) (op, error) {
	r := msg.NewReader(b)
	o := op{kind: opKind(r.U8()), log: LogID(r.U16())}
	n := r.Count(int(r.U16()), 2)
	for i := 0; i < n; i++ {
		o.logs = append(o.logs, LogID(r.U16()))
	}
	o.pos = r.U64()
	o.data = r.Bytes()
	if r.Done() != nil {
		return op{}, errBadOp
	}
	switch o.kind {
	case opAppend, opMultiAppend, opRead, opTrim:
		return o, nil
	default:
		return op{}, errBadOp
	}
}

// Result status codes.
const (
	statusOK byte = iota + 1
	statusTrimmed
	statusOutOfRange
	statusError
)

// result is a server's reply: per-log positions for appends, data for
// reads.
type result struct {
	status byte
	// positions maps each appended log to the position assigned.
	positions []logPos
	data      []byte
}

type logPos struct {
	log LogID
	pos uint64
}

func (res result) encode() []byte {
	w := msg.Writer{Buf: []byte{res.status}}
	w.U16(uint16(len(res.positions)))
	for _, lp := range res.positions {
		w.U16(uint16(lp.log))
		w.U64(lp.pos)
	}
	w.Bytes(res.data)
	return w.Buf
}

// decodeResult parses what encode produces; data aliases b.
func decodeResult(b []byte) (result, error) {
	r := msg.NewReader(b)
	res := result{status: r.U8()}
	n := r.Count(int(r.U16()), 10)
	for i := 0; i < n; i++ {
		res.positions = append(res.positions, logPos{log: LogID(r.U16()), pos: r.U64()})
	}
	res.data = r.Bytes()
	if r.Done() != nil {
		return result{}, errBadOp
	}
	return res, nil
}

// logState is one log's in-memory representation at a server: entries
// since the trim position, plus cache accounting.
type logState struct {
	base       uint64 // position of entries[0]
	entries    [][]byte
	cacheBytes int
}

// SMConfig parametrizes a dLog server state machine.
type SMConfig struct {
	// Logs lists the logs this server hosts, each with the disk its data
	// is written to (Figure 6 associates each ring with a different disk).
	Disks map[LogID]*storage.Disk
	// SyncWrites makes appends hit the disk synchronously before
	// returning (the Figure 5 configuration); otherwise data is cached in
	// memory and written back asynchronously (Section 7.3).
	SyncWrites bool
}

// cacheBytes bounds the in-memory cache per log (200 MB, as in the paper);
// exceeding it forces a synchronous-style flush wait.
const cacheBytes = 200 << 20

// SM is the dLog server state machine. Execute runs on the replica loop;
// Snapshot/Restore may be called concurrently (checkpoints, state
// transfer), so all state is mutex-protected.
type SM struct {
	cfg SMConfig

	mu   sync.Mutex
	logs map[LogID]*logState
}

// NewSM creates a dLog state machine.
func NewSM(cfg SMConfig) *SM {
	return &SM{cfg: cfg, logs: make(map[LogID]*logState)}
}

func (s *SM) logFor(id LogID) *logState {
	l, ok := s.logs[id]
	if !ok {
		l = &logState{}
		s.logs[id] = l
	}
	return l
}

// Execute implements smr.StateMachine.
func (s *SM) Execute(raw []byte) []byte {
	o, err := decodeOp(raw)
	if err != nil {
		return result{status: statusError}.encode()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res := result{status: statusOK}
	switch o.kind {
	case opAppend:
		res.positions = append(res.positions, logPos{log: o.log, pos: s.append(o.log, o.data)})
	case opMultiAppend:
		// multi-append(L, v): append v to every log in L atomically.
		for _, l := range o.logs {
			res.positions = append(res.positions, logPos{log: l, pos: s.append(l, o.data)})
		}
	case opRead:
		l := s.logFor(o.log)
		switch {
		case o.pos < l.base:
			res.status = statusTrimmed
		case o.pos >= l.base+uint64(len(l.entries)):
			res.status = statusOutOfRange
		default:
			res.data = l.entries[o.pos-l.base]
			if res.data == nil {
				res.data = []byte{}
			}
		}
	case opTrim:
		s.trim(o.log, o.pos)
	}
	return res.encode()
}

// append stores the entry, charges the disk, and returns its position.
func (s *SM) append(id LogID, data []byte) uint64 {
	l := s.logFor(id)
	pos := l.base + uint64(len(l.entries))
	l.entries = append(l.entries, data)
	l.cacheBytes += len(data)
	disk := s.cfg.Disks[id]
	if s.cfg.SyncWrites {
		disk.SyncWrite(len(data))
	} else {
		disk.AsyncWrite(len(data))
		if l.cacheBytes > cacheBytes {
			// Cache full: block as if waiting for write-back (the paper's
			// 200 MB cache bounds memory the same way).
			l.cacheBytes = 0
		}
	}
	return pos
}

// trim flushes the cache up to and including pos and drops the entries
// ("a trim command flushes the cache up to the trim position and creates a
// new log file on disk", Section 7.3).
func (s *SM) trim(id LogID, pos uint64) {
	l := s.logFor(id)
	if pos < l.base {
		return
	}
	drop := pos - l.base + 1
	if drop > uint64(len(l.entries)) {
		drop = uint64(len(l.entries))
	}
	freed := 0
	for _, e := range l.entries[:drop] {
		freed += len(e)
	}
	l.entries = append([][]byte(nil), l.entries[drop:]...)
	l.base += drop
	l.cacheBytes -= freed
	if l.cacheBytes < 0 {
		l.cacheBytes = 0
	}
}

// Tail returns the next append position of a log (test/inspection helper).
func (s *SM) Tail(id LogID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.logFor(id)
	return l.base + uint64(len(l.entries))
}

// Snapshot implements smr.StateMachine. Logs are serialized in ascending
// ID order so snapshots of converged replicas are byte-identical.
//
//mrp:deterministic
func (s *SM) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]LogID, 0, len(s.logs))
	for id := range s.logs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var w msg.Writer
	w.U16(uint16(len(ids)))
	for _, id := range ids {
		l := s.logs[id]
		w.U16(uint16(id))
		w.U64(l.base)
		w.U32(uint32(len(l.entries)))
		for _, e := range l.entries {
			w.Bytes(e)
		}
	}
	return w.Buf
}

// Restore implements smr.StateMachine. It accepts exactly what Snapshot
// produces — logs in strictly ascending ID order, no trailing bytes — and
// installs nothing unless all of b decodes, so a truncated snapshot
// leaves the machine as it was.
//
//mrp:deterministic
func (s *SM) Restore(b []byte) {
	r := msg.NewReader(b)
	logs := make(map[LogID]*logState)
	n := r.Count(int(r.U16()), 14)
	var prev LogID
	for i := 0; i < n; i++ {
		id := LogID(r.U16())
		if i > 0 && id <= prev {
			r.Fail()
		}
		prev = id
		l := &logState{base: r.U64()}
		cnt := r.Count(int(r.U32()), 4)
		for k := 0; k < cnt; k++ {
			e := append([]byte(nil), r.Bytes()...)
			l.entries = append(l.entries, e)
			l.cacheBytes += len(e)
		}
		logs[id] = l
	}
	if r.Done() != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logs = logs
}
