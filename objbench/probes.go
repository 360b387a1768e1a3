package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"objmig"
	"objmig/internal/core"
	"objmig/internal/framebuf"
	"objmig/internal/rpc"
	"objmig/internal/store"
	"objmig/internal/transport"
	"objmig/internal/wire"
)

// Layer probes time one layer's public functions on the workload's own
// bodies: its OIDs, its argument mix and sizes, its snapshot sizes.
// Each probe warms the layer first and reports a median over batches.

const (
	probeCalls   = 2000
	probeWarm    = 200
	probeBatches = 15
	streamFrame  = 256 << 10 // bulk frame size of the transport probe
	streamFrames = 32
)

// gobArg encodes v exactly as objmig.Call encodes an argument.
func gobArg(v interface{}) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(err) // the probe's own fixed types always encode
	}
	return buf.Bytes()
}

// callMix is the workload's invoke mix as a replayable sequence: the
// object index and, for a Put, the payload index (-1 for an Add).
type callMix struct {
	obj   []int
	put   []int
	delta []int64
}

func (e *env) mix(n int, objs []int) callMix {
	g := newGenerator(e.cfg.seed, 100)
	var m callMix
	for k := 0; k < n; k++ {
		m.obj = append(m.obj, objs[g.intn(len(objs))])
		p := -1
		if e.pays != nil && g.float() < putFrac {
			p = g.intn(len(e.pays))
		}
		m.put = append(m.put, p)
		m.delta = append(m.delta, int64(1+g.intn(maxAddDelta)))
	}
	return m
}

// invokeBodies are the wire bodies the mix produces.
func (e *env) invokeBodies(m callMix) ([]wire.InvokeReq, []wire.InvokeResp) {
	reqs := make([]wire.InvokeReq, len(m.obj))
	resps := make([]wire.InvokeResp, len(m.obj))
	for k, i := range m.obj {
		reqs[k] = wire.InvokeReq{Obj: e.set.flat[i].OID, Method: "Add", Arg: gobArg(&m.delta[k]), From: "a"}
		res := gobArg(&m.delta[k])
		if p := m.put[k]; p >= 0 {
			reqs[k].Method, reqs[k].Arg = "Put", gobArg(&e.pays[p])
			n := putDataSize
			res = gobArg(&n)
		}
		resps[k] = wire.InvokeResp{Result: res, At: "b"}
	}
	return reqs, resps
}

// medianBatches runs fn in probeBatches batches of n operations and
// returns the median per-operation time in ns.
func medianBatches(n int, fn func(k int)) float64 {
	for k := 0; k < n && k < probeWarm; k++ {
		fn(k)
	}
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			fn(k)
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// timeEach runs fn n times after a warm-up and returns the median
// single-call latency in µs.
func timeEach(n int, fn func(k int) error) (float64, error) {
	for k := 0; k < probeWarm; k++ {
		if err := fn(k); err != nil {
			return 0, err
		}
	}
	lat := make([]float64, n)
	for k := range lat {
		t0 := time.Now()
		if err := fn(k); err != nil {
			return 0, err
		}
		lat[k] = float64(time.Since(t0)) / 1e3
	}
	return median(lat), nil
}

// probeLayers runs every probe and returns their metrics.
func (e *env) probeLayers(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	a, local, remote, err := e.callSites(ctx)
	if err != nil {
		return nil, err
	}

	// types: typed Call on a caller-hosted and on a one-hop object.
	call := func(m callMix, k int) error {
		i := m.obj[k%len(m.obj)]
		var err error
		if p := m.put[k%len(m.obj)]; p >= 0 {
			_, err = objmig.Call[Record, int](ctx, a, e.set.flat[i], "Put", e.pays[p])
			if err == nil {
				e.lastPut[i].Store(int32(p))
			}
		} else {
			_, err = objmig.Call[int64, int64](ctx, a, e.set.flat[i], "Add", m.delta[k%len(m.obj)])
		}
		return err
	}
	lm, rm := e.mix(probeCalls, local), e.mix(probeCalls, remote)
	op := e.tr.begin()
	t0 := time.Now()
	if out["types.local_call_us"], err = timeEach(probeCalls, func(k int) error { return call(lm, k) }); err != nil {
		return nil, fmt.Errorf("local call probe: %w", err)
	}
	k := 0
	out["types.local_call_allocs"] = testing.AllocsPerRun(500, func() { _ = call(lm, k); k++ })
	t1 := time.Now()
	if out["types.remote_call_us"], err = timeEach(probeCalls, func(k int) error { return call(rm, k) }); err != nil {
		return nil, fmt.Errorf("remote call probe: %w", err)
	}
	t2 := time.Now()
	e.tr.op(op, "probe.types", t0, t2)
	e.tr.child(op, "probe.types.local", t0, t1)
	e.tr.child(op, "probe.types.remote", t1, t2)

	// chase / directory: Locate from a random node.
	g := newGenerator(e.cfg.seed, 101)
	op = e.tr.begin()
	t0 = time.Now()
	if out["chase.locate_us"], err = timeEach(probeCalls/2, func(int) error {
		nd := e.cl.nodes[g.intn(len(e.cl.nodes))]
		_, err := nd.Locate(ctx, e.set.flat[g.intn(len(e.set.flat))])
		return err
	}); err != nil {
		return nil, fmt.Errorf("locate probe: %w", err)
	}
	e.tr.op(op, "probe.chase.locate", t0, time.Now())

	// store: Lookup+Acquire+Release over the workload's OIDs.
	op = e.tr.begin()
	t0 = time.Now()
	st := store.New("a")
	oids := make([]core.OID, len(e.set.flat))
	for i, ref := range e.set.flat {
		oids[i] = ref.OID
		if err := st.Add(store.NewRecord(ref.OID, typeName, &objState{})); err != nil {
			return nil, fmt.Errorf("store probe: %w", err)
		}
	}
	out["store.acquire_ns"] = medianBatches(len(oids), func(k int) {
		rec, _ := st.Lookup(oids[k])
		if rec.Acquire(ctx) == nil {
			rec.Release()
		}
	})
	st.Close()
	e.tr.op(op, "probe.store", t0, time.Now())

	// wire: the mix's InvokeReq/InvokeResp, and an InstallChunkReq of
	// one closure's snapshots.
	reqs, resps := e.invokeBodies(e.mix(256, allIndexes(len(e.set.flat))))
	op = e.tr.begin()
	t0 = time.Now()
	buf := make([]byte, 0, 4096)
	codec := func(k int) {
		var rq wire.InvokeReq
		var rs wire.InvokeResp
		buf, _ = wire.MarshalAppend(buf[:0], &reqs[k%len(reqs)])
		_ = wire.Unmarshal(buf, &rq)
		buf, _ = wire.MarshalAppend(buf[:0], &resps[k%len(resps)])
		_ = wire.Unmarshal(buf, &rs)
	}
	out["wire.invoke_codec_ns"] = medianBatches(len(reqs)*4, codec)
	k = 0
	out["wire.invoke_codec_allocs"] = testing.AllocsPerRun(1000, func() { codec(k); k++ })
	chunk := e.chunkBody()
	out["wire.chunk_codec_us"] = medianBatches(32, func(int) {
		var c wire.InstallChunkReq
		buf, _ = wire.MarshalAppend(buf[:0], &chunk)
		_ = wire.Unmarshal(buf, &c)
	}) / 1e3
	e.tr.op(op, "probe.wire", t0, time.Now())

	// rpc: Pool.Call against a handler that decodes the InvokeReq.
	op = e.tr.begin()
	t0 = time.Now()
	if out["rpc.call_us"], err = rpcProbe(ctx, e.w.transport == "tcp", reqs, resps); err != nil {
		return nil, fmt.Errorf("rpc probe: %w", err)
	}
	out["invoke.unattributed_us"] = out["types.remote_call_us"] - out["types.local_call_us"] - out["rpc.call_us"]
	e.tr.op(op, "probe.rpc", t0, time.Now())

	// transport: invoke-sized echo on both fabrics, bulk frames on TCP.
	frame, _ := wire.MarshalAppend(make([]byte, 16), &reqs[0])
	op = e.tr.begin()
	t0 = time.Now()
	memTr := transport.NewNetwork().Transport()
	if out["transport.mem_rtt_us"], _, err = echoProbe(memTr, "echo", frame, false); err != nil {
		return nil, fmt.Errorf("mem transport probe: %w", err)
	}
	if out["transport.tcp_rtt_us"], out["transport.tcp_mb_s"], err = echoProbe(transport.TCP{}, "127.0.0.1:0", frame, true); err != nil {
		return nil, fmt.Errorf("tcp transport probe: %w", err)
	}
	e.tr.op(op, "probe.transport", t0, time.Now())

	// migrate: allocations and wire bytes per object moved, measured
	// over quiet sequential migrations of the workload's closures.
	if err := e.migrateProbe(ctx, out); err != nil {
		return nil, err
	}
	// jobs: the drain workload drained during its timed phase; the
	// others get one drain of their own population here.
	if len(e.drains) == 0 {
		if err := e.cl.enablePlacement(); err != nil {
			return nil, err
		}
		e.settleView()
		if _, err := e.drainOnce(ctx); err != nil {
			return nil, fmt.Errorf("probe drain: %w", err)
		}
	}
	return out, nil
}

// callSites picks the types probe's caller — the node hosting the most
// objects — and splits the objects into those it hosts and those one
// hop away on the next fullest node. A drain can leave every object on
// one node; one closure is then moved away first.
func (e *env) callSites(ctx context.Context) (caller *objmig.Node, local, remote []int, err error) {
	for attempt := 0; attempt < 2; attempt++ {
		byNode := map[objmig.NodeID][]int{}
		for i, ref := range e.set.flat {
			at, err := e.cl.nodes[0].Locate(ctx, ref)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("locate %s: %w", ref, err)
			}
			byNode[at] = append(byNode[at], i)
		}
		var order []*objmig.Node
		order = append(order, e.cl.nodes...)
		sort.SliceStable(order, func(i, j int) bool { return len(byNode[order[i].ID()]) > len(byNode[order[j].ID()]) })
		caller = order[0]
		if len(byNode[order[1].ID()]) > 0 {
			return caller, byNode[caller.ID()], byNode[order[1].ID()], nil
		}
		if err := caller.Migrate(ctx, e.set.members[0][0], order[1].ID()); err != nil {
			return nil, nil, nil, fmt.Errorf("types probe: spread objects: %w", err)
		}
		if e.w.name != "drain-tcp" {
			e.set.host[0] = order[1].ID()
		}
	}
	return nil, nil, nil, fmt.Errorf("types probe: every object stays on one node")
}

func allIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// chunkBody is one closure's snapshots, encoded as the runtime
// linearises object state.
func (e *env) chunkBody() wire.InstallChunkReq {
	c := wire.InstallChunkReq{Token: 1, From: "a", Seq: 1, Trace: 1}
	for m, ref := range e.set.members[0] {
		i := m // closure 0's members are the first flat entries
		s := objState{N: 1, Blob: e.set.blobs[i]}
		if p := e.lastPut[i].Load(); p >= 0 {
			s.Rec = e.pays[p]
		}
		c.Snapshots = append(c.Snapshots, wire.Snapshot{ID: ref.OID, Type: typeName, State: gobArg(&s), Gen: 1})
	}
	return c
}

func rpcProbe(ctx context.Context, tcp bool, reqs []wire.InvokeReq, resps []wire.InvokeResp) (float64, error) {
	var tr transport.Transport = transport.NewNetwork().Transport()
	addr := "rpc-probe"
	if tcp {
		tr, addr = transport.TCP{}, "127.0.0.1:0"
	}
	l, err := tr.Listen(addr)
	if err != nil {
		return 0, err
	}
	srv := rpc.Serve(l, func(_ context.Context, _ wire.Kind, body, dst []byte) ([]byte, error) {
		var req wire.InvokeReq
		if err := wire.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return wire.MarshalAppend(dst, &resps[int(req.Obj.Seq)%len(resps)])
	})
	defer srv.Close()
	pool := rpc.NewPool(tr)
	defer pool.Close()
	return timeEach(probeCalls, func(k int) error {
		var resp wire.InvokeResp
		return pool.Call(ctx, srv.Addr(), wire.KInvoke, &reqs[k%len(reqs)], &resp)
	})
}

// echoProbe measures a round trip of frame over tr against an echo
// server and, when bulk is set, the stop-and-wait throughput of
// streamFrame-sized frames (each acknowledged by a short frame).
func echoProbe(tr transport.Transport, addr string, frame []byte, bulk bool) (rttUs, mbs float64, err error) {
	l, err := tr.Listen(addr)
	if err != nil {
		return 0, 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ack := make([]byte, 8)
		for {
			f, err := conn.Recv()
			if err != nil {
				return
			}
			out := f
			if len(f) > len(frame) {
				binary.LittleEndian.PutUint64(ack, uint64(len(f)))
				out = ack
			}
			err = conn.Send(out)
			framebuf.Put(f)
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		_ = l.Close()
		<-done
	}()
	conn, err := tr.Dial(l.Addr())
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	roundTrip := func(f []byte) error {
		if err := conn.Send(f); err != nil {
			return err
		}
		r, err := conn.Recv()
		if err != nil {
			return err
		}
		framebuf.Put(r)
		return nil
	}
	if rttUs, err = timeEach(probeCalls, func(int) error { return roundTrip(frame) }); err != nil || !bulk {
		return rttUs, 0, err
	}
	big := make([]byte, streamFrame)
	var rates []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for k := 0; k < streamFrames; k++ {
			if err := roundTrip(big); err != nil {
				return 0, 0, err
			}
		}
		rates = append(rates, float64(streamFrame*streamFrames)/time.Since(t0).Seconds()/1e6)
	}
	return rttUs, median(rates), nil
}

// migrateProbe migrates closures one at a time on the otherwise idle
// cluster: allocations and snapshot wire bytes per object moved.
func (e *env) migrateProbe(ctx context.Context, out map[string]float64) error {
	g := newGenerator(e.cfg.seed, 102)
	const moves = 24
	var ms0, ms1 runtime.MemStats
	bytes0 := sumStreamBytes(e.cl)
	runtime.ReadMemStats(&ms0)
	objects := 0
	for k := 0; k < moves; k++ {
		ci := g.intn(len(e.set.members))
		root := e.set.members[ci][0]
		at, err := e.cl.nodes[0].Locate(ctx, root)
		if err != nil {
			return fmt.Errorf("migrate probe: %w", err)
		}
		target := e.cl.nodes[g.intn(len(e.cl.nodes))].ID()
		for target == at {
			target = e.cl.nodes[g.intn(len(e.cl.nodes))].ID()
		}
		op := e.tr.begin()
		t0 := time.Now()
		err = e.cl.node(at).Migrate(ctx, root, target)
		e.tr.op(op, "probe.migrate", t0, time.Now())
		if err != nil {
			return fmt.Errorf("migrate probe: %w", err)
		}
		if e.w.name != "drain-tcp" {
			e.set.host[ci] = target
		}
		objects += len(e.set.members[ci])
	}
	runtime.ReadMemStats(&ms1)
	out["migrate.allocs_per_object"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(objects)
	out["migrate.wire_bytes_per_object"] = float64(sumStreamBytes(e.cl)-bytes0) / float64(objects)
	return e.streamProbe(ctx)
}

// streamProbe exercises the streamed transfer (and so the target's
// stage phase), which the workloads' single-host groups below the
// chunk budget never take: it attaches a few closure roots hosted on
// different nodes to closure 0's root and migrates the merged group,
// which gathers from several hosts and therefore streams.
func (e *env) streamProbe(ctx context.Context) error {
	a := e.cl.nodes[0]
	root := e.set.members[0][0]
	home, err := a.Locate(ctx, root)
	if err != nil {
		return fmt.Errorf("stream probe: %w", err)
	}
	merged := 0
	for ci := 1; ci < len(e.set.members) && merged < 4; ci++ {
		other := e.set.members[ci][0]
		at, err := a.Locate(ctx, other)
		if err != nil {
			return fmt.Errorf("stream probe: %w", err)
		}
		if at == home {
			continue
		}
		if err := a.Attach(ctx, root, other, objmig.NoAlliance); err != nil {
			return fmt.Errorf("stream probe: attach: %w", err)
		}
		merged++
	}
	if merged == 0 {
		return fmt.Errorf("stream probe: every closure is on %s", home)
	}
	for k := 0; k < 3; k++ {
		target := e.cl.nodes[(k+1)%len(e.cl.nodes)].ID()
		if target == home {
			target = e.cl.nodes[(k+2)%len(e.cl.nodes)].ID()
		}
		op := e.tr.begin()
		t0 := time.Now()
		err := a.Migrate(ctx, root, target)
		e.tr.op(op, "probe.stream", t0, time.Now())
		if err != nil {
			return fmt.Errorf("stream probe: migrate to %s: %w", target, err)
		}
		home = target
	}
	return nil
}
