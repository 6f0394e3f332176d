package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"mrp/internal/dlog"
	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

const (
	dlogLogs     = 2
	dlogServers  = 3
	dlogPayload  = 1024
	dlogSessions = 2
	dlogInflight = 8
	// Shares of the operation mix; the rest are single-log appends.
	dlogMultiShare = 0.10
	dlogReadShare  = 0.05
	// rememberEvery keeps one acknowledged append in this many for reading
	// back; remembered is how many a worker keeps.
	rememberEvery = 16
	remembered    = 256
	// finalReads is how many remembered appends each worker reads back
	// after the load stopped.
	finalReads = 4
)

// dlogInputs is what is generated from the seed: each worker's sequence of
// operation classes and logs, and its payload filler.
type dlogInputs struct {
	seed    int64
	workers []dlogWorkerInput
}

type dlogWorkerInput struct {
	session int
	kinds   []int8       // operation classes, repeated
	logs    []dlog.LogID // log choices, repeated
	filler  []byte
}

type dlogEnv struct {
	net     *netsim.Network
	d       *dlog.Deployment
	clients []*dlog.Client
	ws      []*dlogWorker
	stopped bool
}

// appended is one acknowledged append the worker can read back.
type appended struct {
	log dlog.LogID
	pos uint64
	seq uint64
}

type dlogWorker struct {
	id int
	cl *dlog.Client
	dlogWorkerInput
	next int
	seq  uint64
	buf  []byte
	// positions acknowledged per log, for the uniqueness check.
	positions [dlogLogs][]uint64
	kept      []appended
	appends   int
	pick      *rand.Rand
}

func generateDlog(seed int64) *dlogInputs {
	in := &dlogInputs{seed: seed}
	for s := 0; s < dlogSessions; s++ {
		for g := 0; g < dlogInflight; g++ {
			w := dlogWorkerInput{
				session: s,
				kinds:   make([]int8, opsPerWorker),
				logs:    make([]dlog.LogID, opsPerWorker),
				filler:  make([]byte, dlogPayload),
			}
			rng := rand.New(rand.NewSource(seed + int64(len(in.workers))*7919))
			rng.Read(w.filler)
			for i := range w.kinds {
				switch r := rng.Float64(); {
				case r < dlogMultiShare:
					w.kinds[i] = kindMulti
				case r < dlogMultiShare+dlogReadShare:
					w.kinds[i] = kindRead
				default:
					w.kinds[i] = kindWrite
				}
				w.logs[i] = dlog.LogID(rng.Intn(dlogLogs))
			}
			in.workers = append(in.workers, w)
		}
	}
	return in
}

// deploy starts dLog with the Figure 5 ring settings on synchronous SSD
// acceptor logs, opens the sessions and waits for one acknowledged append
// on each.
func (in *dlogInputs) deploy(t *tap) (env, error) {
	e := &dlogEnv{net: netsim.New(netsim.WithSeed(in.seed))}
	b := newBinder(t, func(a transport.Addr) (transport.Endpoint, error) { return e.net.Endpoint(a), nil })
	var addrs [dlogServers]transport.Addr
	for s := range addrs {
		addrs[s], _ = b.bind(transport.Addr(fmt.Sprintf("dlog-s%d", s))) // netsim attaches without error
	}
	d, err := dlog.Deploy(dlog.DeployConfig{
		EndpointFor:   b.endpointFor,
		AddrFor:       func(s int) transport.Addr { return addrs[s] },
		Logs:          dlogLogs,
		Servers:       dlogServers,
		SyncWrites:    false, // durability comes from the synchronous acceptor logs
		StorageMode:   storage.SyncSSD,
		DiskModel:     storage.SSD,
		DiskScale:     1,
		BatchMaxBytes: 32 << 10,
		BatchDelay:    2 * time.Millisecond,
		SkipInterval:  5 * time.Millisecond,
		SkipRate:      9000,
	})
	if err != nil {
		b.closeUnclaimed()
		e.net.Close()
		return nil, err
	}
	e.d = d
	for s := 0; s < dlogSessions; s++ {
		ep, _ := b.session(transport.Addr(fmt.Sprintf("bench-session-%d", s)))
		e.clients = append(e.clients, d.NewClientAt(ep, uint64(9_000_001+s)))
	}
	for id, wi := range in.workers {
		e.ws = append(e.ws, &dlogWorker{
			id: id, cl: e.clients[wi.session], dlogWorkerInput: wi,
			buf:  append([]byte(nil), wi.filler...),
			pick: rand.New(rand.NewSource(in.seed + int64(id)*104729)),
		})
	}
	for s, cl := range e.clients {
		w := e.ws[s*dlogInflight]
		pos, err := cl.Append(0, w.payload())
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("first append of session %d: %w", s, err)
		}
		w.ack(0, pos)
	}
	return e, nil
}

// payload tags the worker's buffer with its identity and a fresh counter.
// The client encodes the payload into the command before it returns, so
// one buffer serves every append.
func (w *dlogWorker) payload() []byte {
	w.seq++
	binary.BigEndian.PutUint64(w.buf, uint64(w.id))
	binary.BigEndian.PutUint64(w.buf[8:], w.seq)
	return w.buf
}

func (w *dlogWorker) ack(l dlog.LogID, pos uint64) {
	w.positions[l] = append(w.positions[l], pos)
	w.appends++
	if w.appends%rememberEvery != 1 {
		return
	}
	a := appended{log: l, pos: pos, seq: w.seq}
	if len(w.kept) < remembered {
		w.kept = append(w.kept, a)
	} else {
		w.kept[w.pick.Intn(remembered)] = a
	}
}

// readBack reads one remembered append and checks the tagged payload.
func (w *dlogWorker) readBack(a appended) error {
	data, err := w.cl.Read(a.log, a.pos)
	if err != nil {
		return err
	}
	if len(data) != dlogPayload ||
		binary.BigEndian.Uint64(data) != uint64(w.id) || binary.BigEndian.Uint64(data[8:]) != a.seq {
		return fmt.Errorf("log %d position %d does not hold append %d of worker %d", a.log, a.pos, a.seq, w.id)
	}
	return nil
}

func (w *dlogWorker) step() (int, error) {
	kind, l := int(w.kinds[w.next]), w.logs[w.next]
	w.next = (w.next + 1) % len(w.kinds)
	if kind == kindRead && len(w.kept) == 0 {
		kind = kindWrite // nothing acknowledged yet to read back
	}
	switch kind {
	case kindRead:
		return kindRead, w.readBack(w.kept[w.pick.Intn(len(w.kept))])
	case kindMulti:
		at, err := w.cl.MultiAppend([]dlog.LogID{0, 1}, w.payload())
		if err != nil {
			return kindMulti, err
		}
		if len(at) != dlogLogs {
			return kindMulti, fmt.Errorf("MultiAppend answered for %d logs, want %d", len(at), dlogLogs)
		}
		for l, pos := range at {
			w.ack(l, pos)
		}
		return kindMulti, nil
	default:
		pos, err := w.cl.Append(l, w.payload())
		if err == nil {
			w.ack(l, pos)
		}
		return kindWrite, err
	}
}

func (e *dlogEnv) workers() []worker {
	out := make([]worker, len(e.ws))
	for i, w := range e.ws {
		out[i] = w
	}
	return out
}

func (e *dlogEnv) measured(int) bool { return true }

func (e *dlogEnv) userBytes() [numKinds]int {
	return [numKinds]int{kindRead: 0, kindWrite: dlogPayload, kindMulti: dlogLogs * dlogPayload}
}

func (e *dlogEnv) writeRing(r msg.RingID) bool { return r != e.d.CommonRing() }

func (e *dlogEnv) counters() counters {
	var c counters
	for _, h := range e.d.Servers {
		c.addRings(h.Node)
		for _, disk := range h.Disks {
			syncOps, _, bytes := disk.Stats()
			c.syncWrites += syncOps
			c.diskBytes += bytes
		}
		c.executed += h.Replica.Executed()
	}
	return c
}

// verify checks that no position of a log was handed out twice, that
// remembered appends read back, and that the servers agree on each tail.
func (e *dlogEnv) verify() (int, []string) {
	checks := 0
	var bad []string
	for l := 0; l < dlogLogs; l++ {
		seen := make(map[uint64]int)
		for _, w := range e.ws {
			for _, pos := range w.positions[l] {
				checks++
				if prev, dup := seen[pos]; dup && len(bad) < 8 {
					bad = append(bad, fmt.Sprintf("log %d position %d acknowledged to workers %d and %d", l, pos, prev, w.id))
				}
				seen[pos] = w.id
			}
		}
	}
	checks += finalReads * len(e.ws)
	bad = append(bad, inParallel(len(e.ws), func(i int) []string {
		w := e.ws[i]
		var bad []string
		for n := 0; n < finalReads && len(w.kept) > 0; n++ {
			if err := w.readBack(w.kept[w.pick.Intn(len(w.kept))]); err != nil {
				bad = append(bad, err.Error())
			}
		}
		return bad
	})...)
	checks += dlogLogs * dlogServers
	bad = append(bad, eventually(func() []string {
		var differ []string
		for l := 0; l < dlogLogs; l++ {
			want := e.d.Servers[0].SM.Tail(dlog.LogID(l))
			for s, h := range e.d.Servers {
				if got := h.SM.Tail(dlog.LogID(l)); got != want {
					differ = append(differ, fmt.Sprintf("log %d: server %d's tail is %d, server 0's %d", l, s, got, want))
				}
			}
		}
		return differ
	})...)
	return checks, bad
}

func (e *dlogEnv) stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.d != nil {
		e.d.Stop()
	}
	e.net.Close()
}
