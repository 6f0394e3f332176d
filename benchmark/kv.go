package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/tcpnet"
	"mrp/internal/transport"
	"mrp/internal/ycsb"
)

const (
	kvPartitions = 2
	kvReplicas   = 3
	kvValueSize  = 100
	// opsPerWorker is the length of the operation cycle generated for each
	// worker before the run; workers repeat it.
	opsPerWorker = 1 << 13
	// faultPartition is the partition whose replica the fault phase crashes.
	faultPartition = 0
	// privateEvery sends one write in this many to a key only its worker
	// writes, whose last acknowledged value the final check reads back.
	privateEvery = 100
)

// wanRegions places partition p wholly in region p. The global ring's
// coordinator is partition 0's first replica, so us-east-1 is the region
// remote from it.
var wanRegions = []string{"us-west-2", "us-east-1"}

// kvSpec is what distinguishes the three MRP-Store workloads.
type kvSpec struct {
	transport string // "sim", "tcp" or "wan"
	sessions  int
	inflight  int
	records   int // preloaded records (per partition on "wan")
	// multiShare of operations are MultiPut; on "sim" and "tcp" the rest is
	// YCSB-A, on "wan" readShare are reads and the rest updates.
	multiShare, readShare float64
	// measuredSession, when >= 0, is the only session whose latencies are
	// reported. That session orders its single-key writes through the global
	// ring (see README.md: a write through a partition's own ring waits for
	// the merge by an amount fixed at start-up, different on every run).
	measuredSession int
}

// kvInputs is everything generated from the seed before anything is
// deployed: the records, each worker's operation cycle and private keys.
// Deployments of one run share it and never write to it.
type kvInputs struct {
	spec    kvSpec
	seed    int64
	part    store.Partitioner
	initial []byte        // the value every record is preloaded with
	entries []store.Entry // what is preloaded
	workers []kvWorkerInput
}

type kvWorkerInput struct {
	session  int
	ops      []kvOp
	privKey  string
	privPair [kvPartitions]string
}

type kvEnv struct {
	in      *kvInputs
	net     *netsim.Network
	d       *store.Deployment
	clients []*store.Client
	// sessions are the clients' endpoints: Client.Close leaves its endpoint
	// open, and only a netsim.Network closes the endpoints attached to it.
	sessions []transport.Endpoint
	ws       []*kvWorker
	global   msg.RingID
	stopped  bool
}

// kvOp is one generated operation.
type kvOp struct {
	kind      int
	part      int // the partition of key
	key, key2 string
	val       []byte
}

type kvWorker struct {
	id int
	cl *store.Client
	// viaGlobal orders single-key writes through the global ring, as
	// one-key transactions on a client with ForceGlobal set.
	viaGlobal bool
	kvWorkerInput
	next   int
	writes int
	multis int
	// The counters the private key and pair were last acknowledged with, and
	// the buffers their values are stamped into.
	privSeq, pairSeq uint64
	buf              [2][]byte
	// lastPart is the partition of the worker's latest single-key write.
	lastPart int
}

// generateKV makes a workload's inputs from the seed.
func generateKV(spec kvSpec, seed int64) *kvInputs {
	in := &kvInputs{spec: spec, seed: seed, part: store.NewHashPartitioner(kvPartitions)}
	if spec.transport == "wan" {
		in.part = store.NewRangePartitioner([]string{"p1"})
	}
	// Keys by partition. On "wan" every record is named after its region's
	// partition; elsewhere the hash partitioner spreads one key space.
	keys := make([][]string, kvPartitions)
	for i := 0; i < spec.records; i++ {
		if spec.transport == "wan" {
			for p := range keys {
				keys[p] = append(keys[p], fmt.Sprintf("p%d-%s", p, ycsb.Key(i)))
			}
			continue
		}
		k := ycsb.Key(i)
		keys[in.part.PartitionOf(k)] = append(keys[in.part.PartitionOf(k)], k)
	}
	rng := rand.New(rand.NewSource(seed))
	in.initial = make([]byte, kvValueSize)
	rng.Read(in.initial)
	for _, ks := range keys {
		for _, k := range ks {
			in.entries = append(in.entries, store.Entry{Key: k, Value: in.initial})
		}
	}
	for s := 0; s < spec.sessions; s++ {
		home := s % kvPartitions
		for g := 0; g < spec.inflight; g++ {
			id := len(in.workers)
			w := kvWorkerInput{session: s, privKey: in.privateKey(id, home, "s")}
			for p := range w.privPair {
				w.privPair[p] = in.privateKey(id, p, "m")
			}
			in.entries = append(in.entries, store.Entry{Key: w.privKey, Value: in.initial})
			for _, k := range w.privPair {
				in.entries = append(in.entries, store.Entry{Key: k, Value: in.initial})
			}
			w.ops = in.generate(seed+int64(id)*7919, home, keys)
			in.workers = append(in.workers, w)
		}
	}
	return in
}

// privateKey finds a key of the given partition that only one worker writes.
func (in *kvInputs) privateKey(worker, part int, tag string) string {
	for j := 0; ; j++ {
		k := fmt.Sprintf("p%d-priv-%s-w%d-%d", part, tag, worker, j)
		if in.part.PartitionOf(k) == part {
			return k
		}
	}
}

// generate builds one worker's operation cycle from its seed.
func (in *kvInputs) generate(seed int64, home int, keys [][]string) []kvOp {
	spec := in.spec
	mix := rand.New(rand.NewSource(seed))
	gen := ycsb.New(ycsb.Config{
		Workload:    ycsb.WorkloadA,
		RecordCount: spec.records,
		ValueSize:   kvValueSize,
		Seed:        seed + 1,
	})
	ops := make([]kvOp, opsPerWorker)
	for i := range ops {
		y := gen.Next() // zipfian key, 50/50 read/update, a fresh value
		key := y.Key
		if spec.transport == "wan" {
			// The generator's key index, taken in the worker's own region.
			idx, _ := strconv.Atoi(strings.TrimLeft(key[len("user"):], "0"))
			key = keys[home][idx%len(keys[home])]
		}
		val := y.Value
		if val == nil {
			val = make([]byte, kvValueSize)
			mix.Read(val)
		}
		r := mix.Float64()
		switch {
		case r < spec.multiShare:
			// One key in each partition, whichever the first fell in.
			other := (in.part.PartitionOf(key) + 1) % kvPartitions
			ops[i] = kvOp{kind: kindMulti, key: key, key2: keys[other][mix.Intn(len(keys[other]))], val: val}
		case spec.transport == "wan" && r < spec.multiShare+spec.readShare,
			spec.transport != "wan" && y.Kind == ycsb.OpRead:
			ops[i] = kvOp{kind: kindRead, key: key}
		default:
			ops[i] = kvOp{kind: kindWrite, key: key, val: val}
		}
		ops[i].part = in.part.PartitionOf(key)
	}
	return ops
}

// deploy starts the cluster, preloads it, opens the sessions and waits for
// one acknowledged write on each. This is what setup_s times.
func (in *kvInputs) deploy(t *tap) (env, error) {
	spec := in.spec
	e := &kvEnv{in: in}
	ok := false
	defer func() {
		if !ok {
			e.stop()
		}
	}()

	cfg := store.DeployConfig{
		Partitions:  kvPartitions,
		Replicas:    kvReplicas,
		Partitioner: in.part,
		StorageMode: storage.InMemory,
	}
	// fresh attaches an endpoint by name.
	var fresh func(transport.Addr) (transport.Endpoint, error)
	replicaName := func(p, r int) transport.Addr { return transport.Addr(fmt.Sprintf("store-p%d-r%d", p, r)) }
	sessionName := func(s int) transport.Addr { return transport.Addr(fmt.Sprintf("bench-session-%d", s)) }
	switch spec.transport {
	case "sim":
		// The default 50 us link delay is below netsim's shortest sleep, so
		// delivery never sleeps: the injected delay is zero.
		e.net = netsim.New(netsim.WithSeed(in.seed))
		fresh = func(a transport.Addr) (transport.Endpoint, error) { return e.net.Endpoint(a), nil }
	case "tcp":
		fresh = func(a transport.Addr) (transport.Endpoint, error) {
			addr := string(a)
			if _, _, err := net.SplitHostPort(addr); err != nil {
				addr = "127.0.0.1:0" // asked for by a symbolic name: any free port
			}
			return tcpnet.Listen(addr)
		}
	case "wan":
		e.net = netsim.New(
			netsim.WithLatency(netsim.WANLatency(500*time.Microsecond, 0.25)),
			netsim.WithBandwidth(1<<30/8),
			netsim.WithInboxSize(1<<14),
			netsim.WithSeed(in.seed),
		)
		cfg.GlobalRing = true
		cfg.SkipInterval = 5 * time.Millisecond
		cfg.SkipRate = 2000
		replicaName = func(p, r int) transport.Addr {
			return transport.Addr(fmt.Sprintf("%s/store-p%d-r%d", wanRegions[p], p, r))
		}
		sessionName = func(s int) transport.Addr {
			return transport.Addr(fmt.Sprintf("%s/bench-session-%d", wanRegions[s%len(wanRegions)], s))
		}
		fresh = func(a transport.Addr) (transport.Endpoint, error) {
			// A partition's lease manager asks for an endpoint by a name
			// without a region; it belongs where the partition is.
			var p int
			if _, err := fmt.Sscanf(string(a), "store-lease-p%d-", &p); err == nil && p < len(wanRegions) {
				a = transport.Addr(wanRegions[p] + "/" + string(a))
			}
			return e.net.Endpoint(a), nil
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", spec.transport)
	}
	b := newBinder(t, fresh)
	defer b.closeUnclaimed()
	var addrs [kvPartitions][kvReplicas]transport.Addr
	for p := range addrs {
		for r := range addrs[p] {
			a, err := b.bind(replicaName(p, r))
			if err != nil {
				return nil, err
			}
			addrs[p][r] = a
		}
	}
	cfg.AddrFor = func(p, r int) transport.Addr { return addrs[p][r] }
	cfg.EndpointFor = b.endpointFor

	d, err := store.Deploy(cfg)
	if err != nil {
		return nil, err
	}
	e.d, e.global = d, d.GlobalRingID()
	d.Preload(in.entries)

	for s := 0; s < spec.sessions; s++ {
		ep, err := b.session(sessionName(s))
		if err != nil {
			return nil, err
		}
		e.sessions = append(e.sessions, ep)
		cl := d.NewClientAt(ep, uint64(9_000_001+s))
		cl.ForceGlobal(s == spec.measuredSession)
		e.clients = append(e.clients, cl)
	}
	for id, wi := range in.workers {
		w := &kvWorker{id: id, cl: e.clients[wi.session], kvWorkerInput: wi,
			viaGlobal: wi.session == spec.measuredSession}
		for i := range w.buf {
			w.buf[i] = append([]byte(nil), in.initial...)
		}
		e.ws = append(e.ws, w)
	}
	// One acknowledged write per session: Phase 1 has run, connections are
	// dialled, and the session's routes are in place.
	for s, cl := range e.clients {
		if err := cl.Update(in.workers[s*spec.inflight].privKey, in.initial); err != nil {
			return nil, fmt.Errorf("first write of session %d: %w", s, err)
		}
	}
	ok = true
	return e, nil
}

// stamp writes a private value: the worker, a counter, and filler.
func stamp(buf []byte, worker int, seq uint64) []byte {
	binary.BigEndian.PutUint64(buf, uint64(worker))
	binary.BigEndian.PutUint64(buf[8:], seq)
	return buf
}

// update is the worker's single-key write.
func (w *kvWorker) update(key string, val []byte) error {
	if w.viaGlobal {
		return w.cl.MultiPut([]store.Entry{{Key: key, Value: val}})
	}
	return w.cl.Update(key, val)
}

func (w *kvWorker) step() (int, error) {
	op := &w.ops[w.next]
	w.next = (w.next + 1) % len(w.ops)
	switch op.kind {
	case kindRead:
		v, err := w.cl.Read(op.key)
		if err == nil && len(v) != kvValueSize {
			err = fmt.Errorf("read %q: %d bytes, want %d", op.key, len(v), kvValueSize)
		}
		return kindRead, err
	case kindWrite:
		w.writes++
		if w.writes%privateEvery == 0 {
			w.lastPart = w.session % kvPartitions
			err := w.update(w.privKey, stamp(w.buf[0], w.id, w.privSeq+1))
			if err == nil {
				w.privSeq++
			}
			return kindWrite, err
		}
		w.lastPart = op.part
		return kindWrite, w.update(op.key, op.val)
	default:
		w.multis++
		if w.multis%privateEvery == 0 {
			v := stamp(w.buf[1], w.id, w.pairSeq+1)
			err := w.cl.MultiPut([]store.Entry{{Key: w.privPair[0], Value: v}, {Key: w.privPair[1], Value: v}})
			if err == nil {
				w.pairSeq++
			}
			return kindMulti, err
		}
		return kindMulti, w.cl.MultiPut([]store.Entry{{Key: op.key, Value: op.val}, {Key: op.key2, Value: op.val}})
	}
}

// lastWritePartition tells the fault phase which partition acknowledged.
func (w *kvWorker) lastWritePartition() int { return w.lastPart }

func (e *kvEnv) workers() []worker {
	out := make([]worker, len(e.ws))
	for i, w := range e.ws {
		out[i] = w
	}
	return out
}

func (e *kvEnv) measured(i int) bool {
	return e.in.spec.measuredSession < 0 || e.ws[i].session == e.in.spec.measuredSession
}

func (e *kvEnv) userBytes() [numKinds]int {
	return [numKinds]int{kindRead: 0, kindWrite: kvValueSize, kindMulti: 2 * kvValueSize}
}

func (e *kvEnv) writeRing(r msg.RingID) bool { return r != e.global }

// live lists the replicas that are up.
func (e *kvEnv) live() []*store.ReplicaHandle {
	var out []*store.ReplicaHandle
	for p := 0; p < kvPartitions; p++ {
		for r := 0; r < kvReplicas; r++ {
			if h := e.d.ReplicaAt(p, r); h != nil && !h.Stopped() {
				out = append(out, h)
			}
		}
	}
	return out
}

func (e *kvEnv) counters() counters {
	var c counters
	for _, h := range e.live() {
		c.addRings(h.Node)
		syncOps, _, bytes := h.Disk.Stats()
		c.syncWrites += syncOps
		c.diskBytes += bytes
		c.executed += h.Replica.Executed()
	}
	for _, cl := range e.clients {
		c.leaseReads += uint64(cl.LeaseReads())
	}
	return c
}

// verify checks, with the load stopped, that every private key holds the
// last value its worker saw acknowledged, and that the replicas of each
// partition hold the same state.
func (e *kvEnv) verify() (int, []string) {
	// One ordered MultiGet per worker reads its private key and its pair.
	checks := 2 * len(e.ws)
	bad := inParallel(len(e.ws), func(i int) []string {
		w := e.ws[i]
		value := func(seq uint64) []byte {
			if seq == 0 {
				return e.in.initial
			}
			return stamp(append([]byte(nil), e.in.initial...), w.id, seq)
		}
		got, err := w.cl.MultiGet([]string{w.privKey, w.privPair[0], w.privPair[1]})
		if err != nil {
			return []string{fmt.Sprintf("worker %d: reading private keys: %v", w.id, err)}
		}
		var bad []string
		if !bytes.Equal(got[w.privKey], value(w.privSeq)) {
			bad = append(bad, fmt.Sprintf("worker %d: private key %q does not hold write %d", w.id, w.privKey, w.privSeq))
		}
		if pair := value(w.pairSeq); !bytes.Equal(got[w.privPair[0]], pair) || !bytes.Equal(got[w.privPair[1]], pair) {
			bad = append(bad, fmt.Sprintf("worker %d: private pair does not hold MultiPut %d on both partitions", w.id, w.pairSeq))
		}
		return bad
	})

	// The replicas of a partition must come to hold the same state. The
	// first replica's answer acknowledged each write, so the others — and the
	// replica the fault phase recovered, which replays its ring's suffix —
	// may still be applying: they are given a few seconds to agree.
	checks += kvPartitions * kvReplicas
	bad = append(bad, eventually(func() []string {
		var differ []string
		for p := 0; p < kvPartitions; p++ {
			var first [sha256.Size]byte
			for r := 0; r < kvReplicas; r++ {
				h := e.d.ReplicaAt(p, r)
				if h == nil || h.Stopped() {
					differ = append(differ, fmt.Sprintf("partition %d replica %d is down at the end of the run", p, r))
					continue
				}
				// StateSnapshot is SM.Snapshot taken by the executor.
				sum := sha256.Sum256(h.Replica.StateSnapshot())
				if r == 0 {
					first = sum
				} else if sum != first {
					differ = append(differ, fmt.Sprintf("partition %d: replica %d's state differs from replica 0's", p, r))
				}
			}
		}
		return differ
	})...)
	return checks, bad
}

func (e *kvEnv) stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	for _, cl := range e.clients {
		cl.Close()
	}
	for _, ep := range e.sessions {
		_ = ep.Close()
	}
	if e.d != nil {
		e.d.Stop()
	}
	if e.net != nil {
		e.net.Close()
	}
}

// faultPhase crashes replica 2 of partition 0 under load, checkpoints the
// survivors, recovers the replica, and times the recovery and the catch-up.
// The caller has put the runner in phaseFault.
func (e *kvEnv) faultPhase() (recoverTime, catchup time.Duration, err error) {
	const p, r = faultPartition, 2
	e.d.CrashReplica(p, r)
	time.Sleep(300 * time.Millisecond)
	for i := 0; i < kvReplicas; i++ {
		if i != r {
			e.d.ReplicaAt(p, i).Replica.Checkpoint()
		}
	}
	time.Sleep(300 * time.Millisecond)
	start := time.Now()
	if err := e.d.RecoverReplica(p, r); err != nil {
		return 0, 0, err
	}
	recoverTime = time.Since(start)

	// Caught up: the recovered replica has applied what a surviving peer had
	// applied at the moment recovery returned.
	ring := e.d.PartitionRing(p)
	applied := func(i int) msg.Instance {
		for _, ri := range e.d.ReplicaAt(p, i).Replica.AppliedTuple() {
			if ri.Ring == ring {
				return ri.Instance
			}
		}
		return 0
	}
	target := applied(0)
	start = time.Now()
	for applied(r) < target {
		if time.Since(start) > 10*time.Second {
			return recoverTime, 0, errors.New("recovered replica did not catch up within 10 s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return recoverTime, time.Since(start), nil
}
