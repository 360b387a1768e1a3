package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"objmig"
	"objmig/internal/framebuf"
)

// sizes are one workload's population and set-up repetitions.
type sizes struct {
	closures  int // closures (invoke-mem: single objects)
	members   int // objects per closure
	blobBytes int // resident blob per object
	setupReps int // set-ups per run; setup_s is their median
}

// workload is one benchmark scenario. run drives the timed phase on a
// set-up env and fills its measurements.
type workload struct {
	name      string
	why       string
	transport string // "mem" or "tcp"
	placement bool   // placement (and the admission ledger) on from boot
	capacity  int64  // per-node object capacity, enforced once placement is on
	// excluded, when set, says why the workload is left out of
	// BENCHMARK.json: it still runs by name, but no bound gates it.
	excluded string
	callers  int
	load     string // the closed-loop callers, for spec.json
	full     sizes
	smoke    sizes
	run      func(ctx context.Context, e *env) error
}

const (
	putFrac     = 0.10 // share of invoke-mem calls that Put a Record
	putDataSize = 512  // Record.Data bytes
	payloadPool = 64   // distinct pregenerated Put records
	maxAddDelta = 9
)

var workloads = []*workload{
	{
		name:      "invoke-mem",
		why:       "whole invoke path (typed codec, store, dispatch, wire, frames, rpc, mem transport) with migrate, chase and jobs idle; a migration-path change should not move it",
		transport: "mem",
		capacity:  512,
		callers:   2,
		load:      "closed loop: 2 callers on nodes a and b invoke uniformly chosen objects (10% Put of a 512 B record, else Add) for 3/4 of the run; then 1 caller migrates single objects, quiet",
		full:      sizes{closures: 768, members: 1, setupReps: 41},
		smoke:     sizes{closures: 48, members: 1, setupReps: 2},
		run:       runInvokeMem,
	},
	{
		name:      "churn-mem",
		why:       "group migration churn: pause, snapshot, stream, install, commit, home updates and stale-hint chasing do the work; invoke latency is latency during migration",
		transport: "mem",
		capacity:  192,
		callers:   2,
		load:      "closed loop: 1 caller migrates a random closure root to a random other node from a random coordinator; 1 caller Adds to random members from random nodes",
		full:      sizes{closures: 64, members: 4, blobBytes: 4 << 10, setupReps: 61},
		smoke:     sizes{closures: 8, members: 4, blobBytes: 4 << 10, setupReps: 2},
		run:       runChurnMem,
	},
	{
		name:      "drain-tcp",
		why:       "drain jobs over loopback TCP: the only workload on the real transport and on the jobs planner, executor, admission check and reservation ledger",
		transport: "tcp",
		placement: true,
		capacity:  320,
		callers:   2,
		load:      "closed loop: 1 caller drains the node hosting the most objects, again and again; 1 caller Adds to random members from random nodes",
		full:      sizes{closures: 96, members: 4, blobBytes: 32 << 10, setupReps: 21},
		smoke:     sizes{closures: 9, members: 4, blobBytes: 32 << 10, setupReps: 2},
		run:       runDrainTCP,
		excluded:  "about half of its runs fail: a losing concurrent move's pause can reach a host after that move's abort; it is never rolled back, so the closure stays paused until the 30 s pause lease fires, every later drain fails on it and invokes on it stall (seed 3 shows it)",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is one run's live state: the cluster, the object population and
// the oracle's expectations, plus everything the timed phase measured.
type env struct {
	cfg  runCfg
	w    *workload
	cl   *cluster
	set  *closureSet
	tr   *tracer // nil unless the run is traced
	pays []Record

	expect    []atomic.Int64 // per object: sum of acknowledged Add deltas
	uncertain []atomic.Bool  // per object: an Add failed, its effect unknown
	lastPut   []atomic.Int32 // per object: payload index of the last acknowledged Put, -1 none

	attempted, failed atomic.Int64

	invokeHist              []*hist      // per caller
	invokers                atomic.Int64 // invoking callers that ran
	invokeOps               atomic.Int64
	invokeNanos             atomic.Int64 // wall time the invoking callers ran, summed per caller
	moveHist                hist
	moveOps                 int64 // completed migrations (a drain counts its group moves)
	moveNanos               int64 // time spent inside relocation operations
	moveBytes               int64 // snapshot bytes shipped while relocating
	drains                  []drainRecord
	heapPeak                uint64
	statsBefore, statsAfter []objmig.Stats
	fbHits, fbMisses        int64

	// Set-ups spread over the timed phase (see hold). gate holds the
	// callers while one runs; paused is the wall time they took.
	gate       sync.RWMutex
	interleave func() error // runs one timed set-up; nil in a traced run
	setupsDue  int
	setupsDone int
	setupErr   error
	timedStart time.Time
	paused     atomic.Int64
	pausing    atomic.Bool // the heap sampler skips its readings

	pmu      sync.Mutex
	problems []string
}

// drainRecord is one drain job as the traced run and the report need it.
type drainRecord struct {
	start, planned   time.Time
	end              time.Time
	status           objmig.JobStatus
	vetoes, reserves int64
}

func (e *env) problem(format string, args ...interface{}) {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if len(e.problems) < 20 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// fail counts a failed or refused operation; the first few are logged.
func (e *env) fail(err error) {
	if e.failed.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "objbench: operation failed:", err)
	}
}

// setup boots a cluster and fills and warms its objects; the cluster it
// returns is ready for the timed phase.
func setup(ctx context.Context, cfg runCfg, w *workload, sz sizes, tr *tracer) (*env, error) {
	e := &env{cfg: cfg, w: w, tr: tr}
	var obs objmig.Observer
	if tr != nil {
		obs = tr.observe
	}
	cl, err := newCluster(3, clusterOpts{tcp: w.transport == "tcp", placement: w.placement, capacity: w.capacity, observer: obs})
	if err != nil {
		return nil, err
	}
	e.cl = cl
	gen := newGenerator(cfg.seed, 0)
	e.set, err = cl.populate(ctx, sz.closures, sz.members, sz.blobBytes, gen)
	if err != nil {
		cl.close()
		return nil, err
	}
	n := len(e.set.flat)
	e.expect = make([]atomic.Int64, n)
	e.uncertain = make([]atomic.Bool, n)
	e.lastPut = make([]atomic.Int32, n)
	for i := range e.lastPut {
		e.lastPut[i].Store(-1)
	}
	if w.name == "invoke-mem" {
		for i := 0; i < payloadPool; i++ {
			e.pays = append(e.pays, Record{Name: gen.name(), Data: gen.bytes(putDataSize)})
		}
		// Fill: every object starts with a Put record.
		for i, ref := range e.set.flat {
			p := gen.intn(payloadPool)
			if _, err := objmig.Call[Record, int](ctx, cl.nodes[0], ref, "Put", e.pays[p]); err != nil {
				cl.close()
				return nil, fmt.Errorf("fill %s: %w", ref, err)
			}
			e.lastPut[i].Store(int32(p))
		}
	}
	if err := e.warm(ctx); err != nil {
		cl.close()
		return nil, err
	}
	return e, nil
}

// warm calls every object from every node, so each caller's location
// hints, connections and frame pools are hot before timing starts.
func (e *env) warm(ctx context.Context) error {
	for round := 0; round < 2; round++ {
		for _, nd := range e.cl.nodes {
			for _, ref := range e.set.flat {
				if _, err := objmig.Call[int64, int64](ctx, nd, ref, "Add", 0); err != nil {
					return fmt.Errorf("warm %s from %s: %w", ref, nd.ID(), err)
				}
			}
		}
	}
	if got, want := e.cl.hosted(), int64(len(e.set.flat)); got != want {
		return fmt.Errorf("after set-up %d objects hosted, want %d", got, want)
	}
	return nil
}

// callerGen is caller c's input stream: the same seed gives every
// caller the same sequence of objects, operations and arguments.
func (e *env) callerGen(c int) *generator { return newGenerator(e.cfg.seed, 1+c) }

// invokeAdd runs one typed Add from node nd on object i, timing it into
// h and keeping the oracle's books.
func (e *env) invokeAdd(ctx context.Context, h *hist, nd *objmig.Node, i int, d int64) {
	ref := e.set.flat[i]
	op := e.tr.begin()
	t0 := time.Now()
	_, err := objmig.Call[int64, int64](ctx, nd, ref, "Add", d)
	t1 := time.Now()
	e.tr.op(op, "invoke.add", t0, t1)
	e.attempted.Add(1)
	if err != nil {
		e.uncertain[i].Store(true)
		e.fail(fmt.Errorf("Add %s from %s: %w", ref, nd.ID(), err))
		return
	}
	h.record(t1.Sub(t0))
	e.invokeOps.Add(1)
	e.expect[i].Add(d)
}

func (e *env) invokePut(ctx context.Context, h *hist, nd *objmig.Node, i, p int) {
	ref := e.set.flat[i]
	op := e.tr.begin()
	t0 := time.Now()
	n, err := objmig.Call[Record, int](ctx, nd, ref, "Put", e.pays[p])
	t1 := time.Now()
	e.tr.op(op, "invoke.put", t0, t1)
	e.attempted.Add(1)
	if err != nil {
		e.lastPut[i].Store(-1) // the Put may or may not have landed
		e.fail(fmt.Errorf("Put %s from %s: %w", ref, nd.ID(), err))
		return
	}
	if n != putDataSize {
		e.problem("Put %s returned %d, want %d", ref, n, putDataSize)
	}
	h.record(t1.Sub(t0))
	e.invokeOps.Add(1)
	e.lastPut[i].Store(int32(p))
}

// invokeLoop is one invoking caller: until stop closes, it picks an
// object uniformly and a calling node (fixed at `from`, or uniform when
// from < 0), and Adds — or, with probability putFrac, Puts a record
// on an object of its own parity, so each object's last Put is known.
func (e *env) invokeLoop(ctx context.Context, c int, from int, puts bool, stop <-chan struct{}) {
	g := e.callerGen(c)
	h := e.invokeHist[c]
	n := len(e.set.flat)
	start, paused := time.Now(), e.paused.Load()
	e.invokers.Add(1)
	defer func() { e.invokeNanos.Add(int64(time.Since(start)) - (e.paused.Load() - paused)) }()
	for {
		select {
		case <-stop:
			return
		default:
		}
		i := g.intn(n)
		var nd *objmig.Node
		if from >= 0 {
			nd = e.cl.nodes[from]
		} else {
			nd = e.cl.nodes[g.intn(len(e.cl.nodes))]
		}
		e.gate.RLock()
		if puts && g.float() < putFrac {
			if i%2 != c%2 {
				i ^= 1
			}
			e.invokePut(ctx, h, nd, i, g.intn(len(e.pays)))
		} else {
			e.invokeAdd(ctx, h, nd, i, int64(1+g.intn(maxAddDelta)))
		}
		e.gate.RUnlock()
	}
}

// migrateLoop is the migrating caller: it moves a random closure root
// to a random other node, issued from a random coordinator, until stop
// closes.
func (e *env) migrateLoop(ctx context.Context, c int, stop <-chan struct{}) {
	g := e.callerGen(c)
	nodes := e.cl.nodes
	before := sumStreamBytes(e.cl)
	for {
		select {
		case <-stop:
			e.moveBytes += sumStreamBytes(e.cl) - before
			return
		default:
		}
		ci := g.intn(len(e.set.members))
		target := nodes[g.intn(len(nodes))].ID()
		for target == e.set.host[ci] {
			target = nodes[g.intn(len(nodes))].ID()
		}
		coord := nodes[g.intn(len(nodes))]
		e.gate.RLock()
		op := e.tr.begin()
		t0 := time.Now()
		err := coord.Migrate(ctx, e.set.members[ci][0], target)
		t1 := time.Now()
		e.gate.RUnlock()
		e.tr.op(op, "migrate", t0, t1)
		e.attempted.Add(1)
		if err != nil {
			e.fail(fmt.Errorf("migrate closure %d to %s via %s: %w", ci, target, coord.ID(), err))
			continue
		}
		e.set.host[ci] = target
		e.moveHist.record(t1.Sub(t0))
		e.moveOps++
		e.moveNanos += int64(t1.Sub(t0))
	}
}

func sumStreamBytes(cl *cluster) int64 {
	var b int64
	for _, s := range cl.stats() {
		b += s.StreamBytesOut
	}
	return b
}

// timed runs fn between the before/after counter snapshots that every
// per-layer delta is taken from, sampling the Go heap meanwhile.
func (e *env) timed(fn func()) {
	e.invokeHist = make([]*hist, e.w.callers)
	for i := range e.invokeHist {
		e.invokeHist[i] = new(hist)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.heapPeak = sampleHeap(stop, &e.pausing)
	}()
	e.statsBefore = e.cl.stats()
	e.fbHits, e.fbMisses = framebuf.Stats()
	e.tr.watchRings(e.cl)
	e.tr.startWindows()
	e.timedStart = time.Now()
	fn()
	e.tr.stopWindows()
	h, m := framebuf.Stats()
	e.fbHits, e.fbMisses = h-e.fbHits, m-e.fbMisses
	e.statsAfter = e.cl.stats()
	close(stop)
	wg.Wait()
}

// elapsed is the timed phase run so far, interleaved set-ups excluded.
func (e *env) elapsed() time.Duration {
	return time.Since(e.timedStart) - time.Duration(e.paused.Load())
}

// hold lets the callers run for d more of the timed phase. In an
// untraced run the set-ups after the first are spread evenly over the
// timed phase: at each one's turn hold takes the gate, so every caller
// finishes the operation in flight and waits, runs the set-up on a
// cluster of its own, closes it and collects its garbage; none of that
// time counts in the timed phase. Spread so, the set-ups see the
// machine across the whole run, as the timed metrics do, and not only
// during a few seconds of it: on a shared host the speed of a set-up
// drifts by tens of percent over seconds.
func (e *env) hold(d time.Duration) {
	end := e.elapsed() + d
	for e.setupsDone < e.setupsDue {
		at := time.Duration(float64(e.cfg.duration()) * (float64(e.setupsDone) + 0.5) / float64(e.setupsDue))
		if at >= end {
			break
		}
		time.Sleep(at - e.elapsed())
		e.gate.Lock()
		e.pausing.Store(true)
		t0 := time.Now()
		if err := e.interleave(); err != nil && e.setupErr == nil {
			e.setupErr = err
		}
		runtime.GC()
		e.paused.Add(int64(time.Since(t0)))
		e.pausing.Store(false)
		e.gate.Unlock()
		e.setupsDone++
	}
	time.Sleep(end - e.elapsed())
}

// sampleHeap reads the Go heap's object bytes from runtime/metrics (no
// stop-the-world) every 2 ms until stop closes, takes each one-second
// window's peak and returns their 90th percentile. A window spans many
// GC cycles, so its peak is near the GC's heap goal (the reading
// counts unswept garbage); the high quantile keeps a transient peak
// that lasts a tenth of the timed phase, such as invoke-mem's quarter
// of relocations, without hinging on the run's single worst GC.
func sampleHeap(stop <-chan struct{}, pausing *atomic.Bool) uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peaks []float64
	var peak uint64
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	window := time.Now()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak && !pausing.Load() {
			peak = v
		}
		select {
		case <-stop:
			if len(peaks) == 0 {
				return peak
			}
			return uint64(quantile(peaks, 0.9))
		case now := <-t.C:
			if now.Sub(window) >= time.Second {
				peaks = append(peaks, float64(peak))
				peak, window = 0, now
			}
		}
	}
}

// runInvokeMem: two callers on nodes a and b invoke uniformly chosen
// objects for three quarters of the run; the last quarter is a quiet
// relocation phase of single-object migrations, timed apart, so the
// invoke numbers never see a migration.
func runInvokeMem(ctx context.Context, e *env) error {
	invokeFor := time.Duration(float64(e.cfg.duration()) * 0.75)
	e.timed(func() {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < e.w.callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				e.invokeLoop(ctx, c, c, true, stop)
			}(c)
		}
		e.hold(invokeFor)
		close(stop)
		wg.Wait()
		stop2 := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.migrateLoop(ctx, e.w.callers, stop2)
		}()
		e.hold(e.cfg.duration() - invokeFor)
		close(stop2)
		<-done
	})
	return nil
}

// runChurnMem: one caller migrates random closures while the other
// invokes random members from random nodes.
func runChurnMem(ctx context.Context, e *env) error {
	e.timed(func() {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			e.migrateLoop(ctx, 0, stop)
		}()
		go func() {
			defer wg.Done()
			e.invokeLoop(ctx, 1, -1, false, stop)
		}()
		e.hold(e.cfg.duration())
		close(stop)
		wg.Wait()
	})
	return nil
}

// runDrainTCP: one caller repeatedly drains the node hosting the most
// objects while the other invokes random members from random nodes.
// A warm-up drain runs first, outside the timed phase.
func runDrainTCP(ctx context.Context, e *env) error {
	if _, err := e.drainOnce(ctx); err != nil {
		return fmt.Errorf("warm-up drain: %w", err)
	}
	e.drains = nil
	e.moveHist = hist{}
	e.moveOps, e.moveNanos = 0, 0
	e.settleView()
	e.timed(func() {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.invokeLoop(ctx, 1, -1, false, stop)
		}()
		before := sumStreamBytes(e.cl)
		for e.elapsed() < e.cfg.duration() {
			e.attempted.Add(1)
			if _, err := e.drainOnce(ctx); err != nil {
				e.fail(err)
			}
			e.hold(2 * placementCfg.Heartbeat) // as settleView
		}
		e.moveBytes = sumStreamBytes(e.cl) - before
		close(stop)
		<-done
	})
	return nil
}

// settleView waits out two placement heartbeats, so the next drain
// plans on a view that already reflects the last one.
func (e *env) settleView() { time.Sleep(2 * placementCfg.Heartbeat) }

// drainOnce drains the node hosting the most objects and checks that
// it ends empty and that no object was lost or duplicated.
func (e *env) drainOnce(ctx context.Context) (drainRecord, error) {
	var from *objmig.Node
	var most int64 = -1
	for _, nd := range e.cl.nodes {
		if h := nd.Stats().ObjectsHosted; h > most {
			from, most = nd, h
		}
	}
	vetoes, reserves := placementCounts(e.cl)
	var rec drainRecord
	op := e.tr.begin()
	rec.start = time.Now()
	j, err := from.NewDrainJob(objmig.JobConfig{})
	rec.planned = time.Now()
	if err != nil {
		return rec, fmt.Errorf("plan drain of %s: %w", from.ID(), err)
	}
	err = j.Execute(ctx)
	rec.end = time.Now()
	rec.status = j.Status()
	e.tr.drain(op, rec)
	if err != nil {
		return rec, fmt.Errorf("drain %s: %w (status %+v)", from.ID(), err, rec.status)
	}
	if rec.status.ObjectsMoved == 0 {
		return rec, fmt.Errorf("drain of %s moved nothing", from.ID())
	}
	if e.cfg.stray {
		if _, err := from.Create(typeName); err != nil {
			return rec, err
		}
	}
	if h := from.Stats().ObjectsHosted; h != 0 {
		e.problem("after draining %s it still hosts %d objects", from.ID(), h)
	}
	if got, want := e.cl.hosted(), int64(len(e.set.flat)); got != want {
		e.problem("after draining %s the cluster hosts %d objects, want %d", from.ID(), got, want)
	}
	v2, r2 := placementCounts(e.cl)
	rec.vetoes, rec.reserves = v2-vetoes, r2-reserves
	d := rec.end.Sub(rec.start)
	e.moveHist.record(d)
	e.moveOps += int64(rec.status.MovesDone)
	e.moveNanos += int64(d)
	e.drains = append(e.drains, rec)
	return rec, nil
}

func placementCounts(cl *cluster) (vetoes, reserves int64) {
	for _, s := range cl.stats() {
		vetoes += s.PlacementVetoes
		reserves += s.PlacementReservations
	}
	return vetoes, reserves
}

// checkOracles verifies the run's outputs: every object hosted exactly
// once, every counter equal to the Adds acknowledged to it, every Put
// record and resident blob read back byte-identical, and every closure
// still collocated.
func (e *env) checkOracles(ctx context.Context) {
	if got, want := e.cl.hosted(), int64(len(e.set.flat)); got != want {
		e.problem("cluster hosts %d objects, want %d", got, want)
	}
	reader := e.cl.nodes[len(e.cl.nodes)-1]
	for i, ref := range e.set.flat {
		st, err := objmig.Call[struct{}, objState](ctx, reader, ref, "Get", struct{}{})
		if err != nil {
			e.problem("read back %s: %v", ref, err)
			continue
		}
		if want := e.expect[i].Load(); st.N != want && !e.uncertain[i].Load() {
			e.problem("counter %s = %d, want %d acknowledged", ref, st.N, want)
		}
		if p := e.lastPut[i].Load(); p >= 0 {
			if want := e.pays[p]; st.Rec.Name != want.Name || !bytes.Equal(st.Rec.Data, want.Data) {
				e.problem("record of %s differs from the last Put", ref)
			}
		}
		if !bytes.Equal(st.Blob, e.set.blobs[i]) {
			e.problem("blob of %s differs from the one filled (%d vs %d bytes)", ref, len(st.Blob), len(e.set.blobs[i]))
		}
	}
	for ci, ms := range e.set.members {
		root, err := reader.Locate(ctx, ms[0])
		if err != nil {
			e.problem("locate root of closure %d: %v", ci, err)
			continue
		}
		if e.w.name != "drain-tcp" && root != e.set.host[ci] {
			e.problem("closure %d at %s, migrated to %s", ci, root, e.set.host[ci])
		}
		for _, m := range ms[1:] {
			if at, err := reader.Locate(ctx, m); err != nil || at != root {
				e.problem("member %s of closure %d at %s (%v), root at %s", m, ci, at, err, root)
			}
		}
	}
}
