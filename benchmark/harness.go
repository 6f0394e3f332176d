package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
)

// Operation classes. Every workload issues all three, so every end-to-end
// metric exists on every workload.
const (
	kindRead  = iota // Read: the lease path on the store, an ordered command on dLog
	kindWrite        // Update / Append: one ordered command to one group
	kindMulti        // MultiPut / MultiAppend: one command multicast to two groups
	numKinds
)

// Phases of a run. Workers run through all of them without stopping; the
// phase in force when an operation starts and ends decides where it counts.
const (
	phaseIdle   = iota // warm-up and gaps between windows: nothing recorded
	phaseMain          // the measured window, tracing off
	phaseTraced        // the traced window (trace runs only)
	phaseFault         // the fault phase (traced kv-sim run only)
	numPhases
)

// worker is one closed-loop caller: a goroutine that shares a session and
// is blocked on a reply except while issuing.
type worker interface {
	// step issues the next generated operation, waits for its reply and
	// checks it. A non-nil error is a failed operation.
	step() (kind int, err error)
}

// env is one deployed system under test with its sessions.
type env interface {
	// workers lists sessions x in-flight callers in a fixed order.
	workers() []worker
	// measured reports whether worker i's latencies are reported; the rest
	// are background load.
	measured(i int) bool
	// counters snapshots the counters the layers export.
	counters() counters
	// userBytes is the payload a completed operation of each class carries.
	userBytes() [numKinds]int
	// writeRing reports whether a ring orders single-group writes (as
	// opposed to the ring shared for multi-group commands).
	writeRing(msg.RingID) bool
	// verify runs after the load stopped. It returns how many checks it
	// made and describes each one that failed.
	verify() (checks int, failures []string)
	stop()
}

// counters is a snapshot of what the layers count themselves: ringpaxos.Stats
// of every ring process, Disk.Stats of every device, Replica.Executed and
// Client.LeaseReads.
type counters struct {
	ringMsgs, ringBytes          uint64 // sent by ring processes
	delivered, skips, retransmit uint64 // instances delivered by learners; of those skips
	syncWrites, diskBytes        uint64
	executed                     uint64
	leaseReads                   uint64
}

// addRings adds the ringpaxos.Stats of every ring process of a node.
func (c *counters) addRings(node *multiring.Node) {
	for _, ring := range node.Rings() {
		if proc, ok := node.Process(ring); ok {
			st := proc.Stats()
			c.ringMsgs += st.MsgsOut.Load()
			c.ringBytes += st.BytesOut.Load()
			c.delivered += st.Delivered.Load()
			c.skips += st.Skips.Load()
			c.retransmit += st.Retransmits.Load()
		}
	}
}

// combine applies op to every counter of a and b.
func (a counters) combine(b counters, op func(x, y uint64) uint64) counters {
	return counters{
		ringMsgs: op(a.ringMsgs, b.ringMsgs), ringBytes: op(a.ringBytes, b.ringBytes),
		delivered: op(a.delivered, b.delivered), skips: op(a.skips, b.skips),
		retransmit: op(a.retransmit, b.retransmit),
		syncWrites: op(a.syncWrites, b.syncWrites), diskBytes: op(a.diskBytes, b.diskBytes),
		executed: op(a.executed, b.executed), leaseReads: op(a.leaseReads, b.leaseReads),
	}
}

func (a counters) sub(b counters) counters {
	return a.combine(b, func(x, y uint64) uint64 { return x - y })
}

func (a counters) add(b counters) counters {
	return a.combine(b, func(x, y uint64) uint64 { return x + y })
}

// A sample packs phase, kind and latency of one completed operation. The
// latency is zero when the operation straddled a phase boundary.
type sample uint64

func packSample(phase, kind int, d time.Duration) sample {
	return sample(uint64(phase)<<60 | uint64(kind)<<56 | uint64(d)&(1<<56-1))
}
func (s sample) phase() int             { return int(s >> 60) }
func (s sample) kind() int              { return int(s>>56) & 0xf }
func (s sample) latency() time.Duration { return time.Duration(s & (1<<56 - 1)) }

// runner drives the workers of an env through the phases.
type runner struct {
	e     env
	phase atomic.Int32
	quit  atomic.Bool
	wg    sync.WaitGroup
	slots []*slot
}

// slot is what one worker goroutine records; the runner reads it only
// after the goroutine has exited.
type slot struct {
	measured bool // false: background load, reported apart
	samples  []sample
	failed   [numPhases]int
	errs     []string
	// faultAcks are completion times, during the fault phase, of writes to
	// the partition the fault hits.
	faultAcks []time.Time
}

func startLoad(e env) *runner {
	r := &runner{e: e}
	for i, w := range e.workers() {
		s := &slot{measured: e.measured(i), samples: make([]sample, 0, 1<<16)}
		r.slots = append(r.slots, s)
		r.wg.Add(1)
		go r.loop(w, s)
	}
	return r
}

func (r *runner) loop(w worker, s *slot) {
	defer r.wg.Done()
	for !r.quit.Load() {
		before := int(r.phase.Load())
		start := time.Now()
		kind, err := w.step()
		end := time.Now()
		after := int(r.phase.Load())
		if after == phaseIdle {
			if err != nil && len(s.errs) < 8 {
				s.errs = append(s.errs, err.Error())
			}
			continue
		}
		if err != nil {
			s.failed[after]++
			if len(s.errs) < 8 {
				s.errs = append(s.errs, err.Error())
			}
			continue
		}
		if after == phaseFault && kind == kindWrite {
			if pw, ok := w.(interface{ lastWritePartition() int }); !ok || pw.lastWritePartition() == faultPartition {
				s.faultAcks = append(s.faultAcks, end)
			}
		}
		// An operation that straddles a boundary counts as completed in
		// the phase it ended in but gives no latency sample.
		d := end.Sub(start)
		if before != after {
			d = 0
		}
		s.samples = append(s.samples, packSample(after, kind, d))
	}
}

// stopLoad ends the load and waits for every worker to return.
func (r *runner) stopLoad() {
	r.quit.Store(true)
	r.wg.Wait()
}

// add accumulates another window of the same phase.
func (w *window) add(o window) {
	w.elapsed += o.elapsed
	w.cpu += o.cpu
	w.counters = w.counters.add(o.counters)
	w.allocB += o.allocB
	w.gcPause += o.gcPause
}

// window is what was observed between two phase changes.
type window struct {
	elapsed  time.Duration
	cpu      time.Duration
	counters counters
	allocB   uint64
	gcPause  time.Duration
}

type windowStart struct {
	at       time.Time
	cpu      time.Duration
	counters counters
	mem      runtime.MemStats
}

func (r *runner) begin(phase int) windowStart {
	var ws windowStart
	runtime.ReadMemStats(&ws.mem)
	ws.counters = r.e.counters()
	ws.cpu = processCPU()
	ws.at = time.Now()
	r.phase.Store(int32(phase))
	return ws
}

func (r *runner) end(ws windowStart) window {
	r.phase.Store(phaseIdle)
	w := window{elapsed: time.Since(ws.at), cpu: processCPU() - ws.cpu}
	w.counters = r.e.counters().sub(ws.counters)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	w.allocB = mem.TotalAlloc - ws.mem.TotalAlloc
	w.gcPause = time.Duration(mem.PauseTotalNs - ws.mem.PauseTotalNs)
	return w
}

// measure runs one phase for d.
func (r *runner) measure(phase int, d time.Duration) window {
	ws := r.begin(phase)
	time.Sleep(d)
	return r.end(ws)
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally is the client-observed outcome of one phase, read after stopLoad.
type tally struct {
	done   [numKinds]int // completed by every session
	failed int
	// measuredDone and latency cover the measured sessions, background the
	// rest; latencies ascend once sort has been called.
	measuredDone int
	latency      [numKinds][]time.Duration
	background   [numKinds][]time.Duration
}

func (t tally) completed() int { return t.done[kindRead] + t.done[kindWrite] + t.done[kindMulti] }

// add merges another tally into t.
func (t *tally) add(o tally) {
	for k := range t.done {
		t.done[k] += o.done[k]
		t.latency[k] = append(t.latency[k], o.latency[k]...)
		t.background[k] = append(t.background[k], o.background[k]...)
	}
	t.failed += o.failed
	t.measuredDone += o.measuredDone
}

func (t *tally) sort() {
	for k := range t.latency {
		sortDurations(t.latency[k])
		sortDurations(t.background[k])
	}
}

func (r *runner) tally(phase int) tally {
	var t tally
	for _, s := range r.slots {
		t.failed += s.failed[phase]
		for _, sm := range s.samples {
			if sm.phase() != phase {
				continue
			}
			t.done[sm.kind()]++
			into := &t.background
			if s.measured {
				t.measuredDone++
				into = &t.latency
			}
			if d := sm.latency(); d > 0 {
				into[sm.kind()] = append(into[sm.kind()], d)
			}
		}
	}
	return t
}

// errors returns a few of the operation errors seen, for the report.
func (r *runner) errors() []string {
	var out []string
	for _, s := range r.slots {
		out = append(out, s.errs...)
	}
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

// longestGap returns the longest interval between consecutive acknowledged
// writes to the faulted partition during the fault phase.
func (r *runner) longestGap() time.Duration {
	var acks []time.Time
	for _, s := range r.slots {
		acks = append(acks, s.faultAcks...)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
	var gap time.Duration
	for i := 1; i < len(acks); i++ {
		if d := acks[i].Sub(acks[i-1]); d > gap {
			gap = d
		}
	}
	return gap
}

// inParallel runs check(0..n-1) at once and gathers what they report.
func inParallel(n int, check func(i int) []string) []string {
	reports := make([][]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i] = check(i)
		}(i)
	}
	wg.Wait()
	var out []string
	for _, r := range reports {
		out = append(out, r...)
	}
	return out
}

// eventually polls check until it reports nothing, and returns its last
// report if it still reports something after five seconds. Replicas that
// were not the first to answer apply the tail of the run after the load has
// stopped; state that never converges is a failure.
func eventually(check func() []string) []string {
	deadline := time.Now().Add(5 * time.Second)
	for {
		report := check()
		if len(report) == 0 || time.Now().After(deadline) {
			return report
		}
		time.Sleep(20 * time.Millisecond)
	}
}
