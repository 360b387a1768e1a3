package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"objmig"
	"objmig/internal/telemetry"
)

// tracer records the traced run's spans. Spans come from the
// benchmark's own code, around each call into the program (an invoke,
// a Migrate, a drain job and its plan and execute halves, and each
// layer probe); wave spans from the jobs' EventJob events; and the
// migration phase spans every node already records, read from the
// nodes' rings as they fill and parented by time containment. Spans are
// kept in memory, up to maxSpans of each source, and written out when
// the run ends.
//
// During the timed phase tracing alternates with untraced windows of
// equal length, so the two invoke rates it compares share the same
// cluster and the same moment; their gap is the tracing overhead.
// All methods are no-ops on a nil tracer, the untraced run.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64
	waves   []waveEvent

	opsOn, opsOff     atomic.Int64 // invokes completed in traced / untraced windows
	nanosOn, nanosOff int64        // wall time of each window kind
	windowStop        chan struct{}
	windowDone        chan struct{}

	rings    []*ringReader
	skipped  []int64 // per ring: spans recorded before the timed phase
	ringStop chan struct{}
	ringDone chan struct{}
}

// span is one recorded interval. Op groups the spans of one operation.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Self   int64  `json:"self_ns"`
}

type waveEvent struct {
	node objmig.NodeID
	wave int
	done bool
	at   time.Time
}

const (
	maxSpans = 200_000 // spans kept per source (benchmark, nodes); later ones are counted as dropped
	traceWin = 200 * time.Millisecond
	ringPoll = 50 * time.Millisecond
)

func newTracer() *tracer { return &tracer{} }

// opHandle names one operation; zero when it is not traced.
type opHandle struct{ id uint64 }

func (t *tracer) begin() opHandle {
	if t == nil || !t.on.Load() {
		return opHandle{}
	}
	return opHandle{id: t.nextID.Add(1)}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// op records the root span of a traced operation and counts invokes
// for the overhead comparison.
func (t *tracer) op(h opHandle, name string, t0, t1 time.Time) {
	if t == nil {
		return
	}
	if strings.HasPrefix(name, "invoke") {
		if h.id != 0 {
			t.opsOn.Add(1)
		} else {
			t.opsOff.Add(1)
		}
	}
	if h.id == 0 {
		return
	}
	t.add(span{ID: h.id, Op: h.id, Name: name, Start: t0.UnixNano(), End: t1.UnixNano()})
}

// child records a span under parent.
func (t *tracer) child(parent opHandle, name string, t0, t1 time.Time) {
	if t == nil || parent.id == 0 {
		return
	}
	t.add(span{ID: t.nextID.Add(1), Parent: parent.id, Op: parent.id, Name: name, Start: t0.UnixNano(), End: t1.UnixNano()})
}

// drain records a drain job: the whole, the plan and the execution.
func (t *tracer) drain(h opHandle, r drainRecord) {
	if t == nil || h.id == 0 {
		return
	}
	t.op(h, "drain", r.start, r.end)
	t.child(h, "jobs.plan", r.start, r.planned)
	t.child(h, "jobs.execute", r.planned, r.end)
}

// observe is the nodes' Observer in a traced run: it keeps the job
// wave edges and ignores everything else.
func (t *tracer) observe(ev objmig.Event) {
	if ev.Kind != objmig.EventJob || (ev.Outcome != "wave" && ev.Outcome != "wave-done") {
		return
	}
	t.mu.Lock()
	t.waves = append(t.waves, waveEvent{node: ev.Node, wave: ev.Wave, done: ev.Outcome == "wave-done", at: ev.Time})
	t.mu.Unlock()
}

// startWindows begins alternating traced and untraced windows.
func (t *tracer) startWindows() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.waves = nil // set-up drains are not part of the measurement
	t.mu.Unlock()
	t.windowStop, t.windowDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.windowDone)
		tick := time.NewTicker(traceWin)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-t.windowStop:
				t.account(time.Since(last))
				return
			case now := <-tick.C:
				t.account(now.Sub(last))
				last = now
				t.on.Store(!t.on.Load())
			}
		}
	}()
}

func (t *tracer) account(d time.Duration) {
	if t.on.Load() {
		t.nanosOn += int64(d)
	} else {
		t.nanosOff += int64(d)
	}
}

// stopWindows ends the alternation; tracing stays on for the probes.
func (t *tracer) stopWindows() {
	if t == nil {
		return
	}
	close(t.windowStop)
	<-t.windowDone
	t.on.Store(true)
}

// overhead is the traced invoke rate's shortfall against the untraced
// one, and the traced rate itself.
func (t *tracer) overhead() (frac, tracedRate float64) {
	if t.nanosOn == 0 || t.nanosOff == 0 {
		return 0, 0
	}
	on := float64(t.opsOn.Load()) / (float64(t.nanosOn) / 1e9)
	off := float64(t.opsOff.Load()) / (float64(t.nanosOff) / 1e9)
	if off == 0 {
		return 0, on
	}
	return 1 - on/off, on
}

// ringReader copies one node's migration span ring as it fills. The
// ring holds the newest DefaultTraceSpans spans and never empties, so
// each poll keeps the spans recorded after the newest one it had seen.
type ringReader struct {
	nd      *objmig.Node
	last    telemetry.Span
	started bool  // last is set
	read    int64 // spans taken from the ring
	spans   []telemetry.Span
}

// poll keeps the spans recorded since the previous poll. keep=false
// only moves the read position (the spans before the timed phase).
func (r *ringReader) poll(keep bool) {
	ring := r.nd.TraceSpans()
	from := 0
	if r.started {
		for i := len(ring) - 1; i >= 0; i-- {
			if ring[i] == r.last {
				from = i + 1
				break
			}
		}
	}
	if len(ring) > 0 {
		r.last, r.started = ring[len(ring)-1], true
	}
	if keep {
		r.spans = append(r.spans, ring[from:]...)
		r.read += int64(len(ring) - from)
	}
}

// missed is the number of spans the ring overwrote before a poll read
// them: every span it ever recorded (evicted ones plus those it holds)
// minus those read and those before the timed phase. It polls, takes
// the eviction count and reads the ring again, until no span landed in
// between.
func (r *ringReader) missed(skipped int64) int64 {
	for {
		r.poll(true)
		evicted := r.nd.Stats().TraceSpansEvicted
		ring := r.nd.TraceSpans()
		if n := len(ring); n == 0 && !r.started || n > 0 && ring[n-1] == r.last {
			return evicted + int64(len(ring)) - skipped - r.read
		}
	}
}

// watchRings starts reading every node's migration span ring every
// ringPoll, from its current end: the spans of the timed phase and the
// probes are kept, earlier ones (the set-up's) are not. A ring holds
// thousands of spans, and ringPoll is short enough that even a churn
// of several thousand migrations a second cannot wrap it between two
// reads, so the phase medians see every span (trace.spans_evicted
// counts any it missed).
func (t *tracer) watchRings(cl *cluster) {
	if t == nil {
		return
	}
	for _, nd := range cl.nodes {
		r := &ringReader{nd: nd}
		r.poll(false)
		t.skipped = append(t.skipped, nd.Stats().TraceSpansEvicted+int64(len(nd.TraceSpans())))
		t.rings = append(t.rings, r)
	}
	t.ringStop, t.ringDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.ringDone)
		tick := time.NewTicker(ringPoll)
		defer tick.Stop()
		for {
			select {
			case <-t.ringStop:
				return
			case <-tick.C:
				for _, r := range t.rings {
					r.poll(true)
				}
			}
		}
	}()
}

// stopRings stops the reader and reads every ring a last time. It may
// be called more than once.
func (t *tracer) stopRings() {
	if t == nil || t.ringStop == nil {
		return
	}
	close(t.ringStop)
	<-t.ringDone
	t.ringStop = nil
	for _, r := range t.rings {
		r.poll(true)
	}
}

// collect stops the ring reader and folds the nodes' migration phase
// spans and the job waves into the span set. A wave's parent is the
// drain execution containing it; a phase span's parent is the
// innermost migrate, wave or drain execution containing its start (the
// program's spans carry a TraceID the benchmark cannot see for a plain
// Migrate, so time decides). missed counts the phase spans a ring
// overwrote before they were read, and evicted the rings' own eviction
// counts.
func (t *tracer) collect() (phases map[string][]float64, missed, evicted int64) {
	t.stopRings()
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := func(names ...string) []span {
		var out []span
		for _, s := range t.spans {
			for _, n := range names {
				if s.Name == n {
					out = append(out, s)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
		return out
	}
	contain := func(cands []span, at int64) (span, bool) {
		i := sort.Search(len(cands), func(i int) bool { return cands[i].Start > at })
		for j := i - 1; j >= 0 && j >= i-8; j-- {
			if cands[j].End >= at {
				return cands[j], true
			}
		}
		return span{}, false
	}

	execs := parents("jobs.execute")
	open := map[objmig.NodeID]waveEvent{}
	for _, w := range t.waves {
		if !w.done {
			open[w.node] = w
			continue
		}
		st, ok := open[w.node]
		if !ok || st.wave != w.wave {
			continue
		}
		delete(open, w.node)
		s := span{ID: t.nextID.Add(1), Name: "jobs.wave", Start: st.at.UnixNano(), End: w.at.UnixNano()}
		if p, ok := contain(execs, s.Start); ok {
			s.Parent, s.Op = p.ID, p.Op
		}
		t.spans = append(t.spans, s)
	}

	cands := parents("migrate", "jobs.wave", "jobs.execute", "probe.migrate", "probe.stream")
	phases = map[string][]float64{}
	kept := 0
	for i, r := range t.rings {
		missed += r.missed(t.skipped[i])
		evicted += r.nd.Stats().TraceSpansEvicted
		for _, ps := range r.spans {
			name := "migrate." + ps.Phase.String()
			phases[name] = append(phases[name], float64(ps.End-ps.Start)/1e3)
			if kept >= maxSpans {
				t.dropped++
				continue
			}
			s := span{ID: t.nextID.Add(1), Name: name, Start: ps.Start, End: ps.End}
			if p, ok := contain(cands, ps.Start); ok {
				s.Parent, s.Op = p.ID, p.Op
			}
			t.spans = append(t.spans, s)
			kept++
		}
		r.spans = nil
	}
	return phases, missed, evicted
}

// waveDurations are the collected wave spans' lengths in ms.
func (t *tracer) waveDurations() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == "jobs.wave" {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes fills each span's self time — its duration minus the part
// its children cover — and summarises them per span name.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(s.Self)/1e3)
	}
	var rows []selfRow
	for name, d := range durs {
		rows = append(rows, selfRow{name: name, count: len(d), durUs: median(d), selfUs: median(selfs[name])})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

type selfRow struct {
	name          string
	count         int
	durUs, selfUs float64
}

// covered is the length of [start,end] covered by the union of the
// children's intervals.
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max64(k.Start, start), min64(k.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// counts reports the spans kept and those dropped past maxSpans.
func (t *tracer) counts() (kept int, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}

// write stores every span as one JSON line under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
