package objmig

import (
	"context"
	"errors"
	"fmt"
	"time"

	"objmig/internal/core"
	"objmig/internal/store"
	"objmig/internal/wire"
)

// InvokeRaw invokes a method with a pre-encoded argument, chasing
// forwarding pointers and location hints until the object is found.
// Typed callers should prefer Call.
func (n *Node) InvokeRaw(ctx context.Context, ref Ref, method string, arg []byte) ([]byte, error) {
	if ref.IsZero() {
		return nil, fmt.Errorf("%w: zero reference", ErrNotFound)
	}
	oid := ref.OID
	c := n.newChase(oid)
	defer c.end()
	for c.next(ctx) {
		// One sharded lookup resolves both the hosted record and, when
		// the object is elsewhere, the best location hint.
		rec, target := n.store.Lookup(oid)
		if rec != nil {
			n.aff.RecordLocal(oid)
			out, err := n.invokeLocal(ctx, rec, method, arg)
			if to, moved := movedTo(err); moved {
				n.store.Learn(oid, to)
				continue
			}
			return out, fromRemote(err)
		}
		if target == n.id {
			if n.selfHintRetry(oid) {
				continue // an arrival raced the two lookups
			}
			return nil, fmt.Errorf("%w: %s", ErrNotFound, oid)
		}
		var resp wire.InvokeResp
		n.stats.remoteCallsSent.Add(1)
		c.hop()
		hopStart := time.Now()
		err := n.call(ctx, target, wire.KInvoke,
			&wire.InvokeReq{Obj: oid, Method: method, Arg: arg, From: n.id}, &resp)
		n.tel.invokeRemote.ObserveSince(hopStart)
		if err == nil {
			n.store.Learn(oid, resp.At)
			return resp.Result, nil
		}
		if to, moved := movedTo(err); moved {
			n.store.Learn(oid, to)
			continue
		}
		if isCode(err, wire.CodeNotFound) && target != oid.Origin {
			// Stale hint: fall back towards the origin.
			n.store.InvalidateAt(oid, target)
			continue
		}
		return nil, fromRemote(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	recState := "no-record"
	if rec, ok := n.record(oid); ok {
		rec.Mu.Lock()
		recState = fmt.Sprintf("status=%d movedTo=%s", rec.Status, rec.MovedTo)
		rec.Mu.Unlock()
	}
	return nil, fmt.Errorf("%w: %s (chase budget exhausted; %s; %s)", ErrUnreachable, oid, recState, n.store.Debug(oid))
}

// isCode reports whether err is a RemoteError with the given code.
func isCode(err error, code wire.ErrCode) bool {
	var re *wire.RemoteError
	return errors.As(err, &re) && re.Code == code
}

// chase is the adaptive retry budget of one location chase. A chase
// normally terminates within a handful of hops, and the attempt budget
// (Config.CallRetries) covers that common case cheaply. But a fixed
// attempt count alone is a wall-clock budget in disguise — 32 attempts
// at 1 ms apart is ~32 ms — and under heavy migration ping-pong (or on
// a starved single-CPU box) a single transfer can take longer than
// that, so a correct chase could exhaust its budget while the object
// was merely in flight. The deadline (Config.ChaseDeadline) closes
// that hole: a chase keeps retrying until BOTH the attempt budget and
// the deadline are spent, so churn stretches the chase instead of
// failing it, while the deadline still guarantees termination.
type chase struct {
	n        *Node
	oid      core.OID
	attempt  int
	hops     int       // remote calls issued — the directory's cost metric
	start    time.Time // chase begin, for the latency histogram
	deadline time.Time // zero when ChaseDeadline is disabled
}

// newChase starts a chase budget for one logical operation on oid.
func (n *Node) newChase(oid core.OID) chase {
	c := chase{n: n, oid: oid, start: time.Now()}
	if d := n.chaseDeadline; d > 0 {
		c.deadline = c.start.Add(d)
	}
	return c
}

// hop records one remote call of the chase. Callers bump it immediately
// before each RPC so end() sees the true network cost.
func (c *chase) hop() { c.hops = c.hops + 1 }

// end folds the finished chase into the node's directory statistics:
// zero hops means the object was local (not a directory event at all),
// one hop means the first hint was right (a hit), more means chasing
// (a miss). Chases longer than DirectoryConfig.ChaseHopBudget also
// count as over-budget and emit an EventChase so operators can spot
// directories gone stale.
func (c *chase) end() {
	n := c.n
	switch {
	case c.hops == 0:
		return
	case c.hops == 1:
		n.stats.hintHits.Add(1)
	default:
		n.stats.hintMisses.Add(1)
	}
	n.tel.chaseLat.ObserveSince(c.start)
	n.stats.chaseHops.Add(int64(c.hops))
	bucket := c.hops
	if bucket > len(n.stats.chaseHist) {
		bucket = len(n.stats.chaseHist)
	}
	n.stats.chaseHist[bucket-1].Add(1)
	if budget := n.dir.ChaseHopBudget; budget > 0 && c.hops > budget {
		n.stats.chasesOverBudget.Add(1)
		n.emit(Event{Kind: EventChase, Obj: Ref{OID: c.oid}, Outcome: "over-budget", Hops: c.hops})
	}
}

// next reports whether another attempt may run, backing off briefly
// between attempts so in-flight transfers can land before the next
// try (long chases stretch the pause — by then the object is clearly
// mid-transfer and tight polling only adds load). It returns false
// when the budget is spent or the context is done; callers
// distinguish the two via ctx.Err().
func (c *chase) next(ctx context.Context) bool {
	if c.attempt == 0 {
		c.attempt++
		return ctx.Err() == nil
	}
	if c.attempt >= c.n.retries && (c.deadline.IsZero() || !time.Now().Before(c.deadline)) {
		return false
	}
	d := time.Millisecond
	switch {
	case c.attempt >= 256:
		d = 8 * time.Millisecond
	case c.attempt >= 64:
		d = 4 * time.Millisecond
	}
	c.attempt++
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// selfHintRetry resolves the "my own tables point at me but I don't
// host it" case: if any record exists (the object just arrived, is
// arriving, or left a stub disagreeing with the registry for an
// instant) the chase should retry; only a never-hosted object is
// genuinely unknown.
func (n *Node) selfHintRetry(oid core.OID) bool {
	_, ok := n.record(oid)
	return ok
}

// invokeLocal executes a method on a hosted object, serialising
// invocations per object and waiting out migrations in progress.
func (n *Node) invokeLocal(ctx context.Context, rec *store.Record, method string, arg []byte) (out []byte, err error) {
	if err := rec.Acquire(ctx); err != nil {
		return nil, err
	}
	defer rec.Release()
	t, ok := n.typeByName(rec.TypeName)
	if !ok {
		return nil, wire.Errorf(wire.CodeUnknownType, "type %q not registered on %s", rec.TypeName, n.id)
	}
	m, ok := t.method(method)
	if !ok {
		return nil, wire.Errorf(wire.CodeUnknownMethod, "%s.%s", rec.TypeName, method)
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("objmig: method %s.%s panicked: %v", rec.TypeName, method, r)
		}
	}()
	n.stats.invocationsServed.Add(1)
	n.emit(Event{Kind: EventInvoke, Obj: Ref{OID: rec.ID}, Outcome: method})
	c := &Ctx{ctx: ctx, node: n, self: Ref{OID: rec.ID}}
	defer n.tel.invokeLocal.ObserveSince(time.Now())
	return m(c, rec.Inst, arg)
}

// handleInvoke serves a remote invocation, attributing the access to
// the calling node in the affinity tracker.
func (n *Node) handleInvoke(ctx context.Context, req *wire.InvokeReq) (*wire.InvokeResp, error) {
	rec, ok := n.record(req.Obj)
	if !ok {
		return nil, n.whereabouts(req.Obj)
	}
	// Attribute pressure only for objects actually served here: a
	// forwarding stub answering misdirected calls must not accumulate
	// phantom counts that would poison a later return of the object.
	if n.aff.Enabled() && !rec.IsGone() {
		n.aff.Record(req.Obj, req.From)
	}
	out, err := n.invokeLocal(ctx, rec, req.Method, req.Arg)
	if err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return nil, re
		}
		return nil, wire.Errorf(wire.CodeInternal, "%v", err)
	}
	return &wire.InvokeResp{Result: out, At: n.id}, nil
}

// whereabouts builds the error for an object this node does not host:
// a redirect when anything points elsewhere, not-found otherwise.
func (n *Node) whereabouts(oid core.OID) *wire.RemoteError {
	if to, ok := n.store.Forward(oid); ok && to != n.id {
		return &wire.RemoteError{Code: wire.CodeMoved, Msg: oid.String(), To: to}
	}
	if oid.Origin == n.id {
		if at, ok := n.store.Home(oid); ok && at != n.id {
			return &wire.RemoteError{Code: wire.CodeMoved, Msg: oid.String(), To: at}
		}
	}
	// Double check: an installation may have landed between the
	// caller's record lookup and the forward lookup above (the record
	// appears before the forwarding pointer is cleared). Answer
	// "moved to me" so the caller simply retries here.
	if _, ok := n.hostedRecord(oid); ok {
		return &wire.RemoteError{Code: wire.CodeMoved, Msg: oid.String(), To: n.id}
	}
	return wire.Errorf(wire.CodeNotFound, "object %s unknown at %s", oid, n.id)
}

// handleLocate serves a location query with authoritative knowledge
// only: hosting, the registry's (chain-shortened) forwarding pointer,
// or the origin's home index. Hearsay (cached hints) is never served —
// stale caches on bystander nodes would let location chases cycle.
func (n *Node) handleLocate(req *wire.LocateReq) (*wire.LocateResp, error) {
	if _, ok := n.hostedRecord(req.Obj); ok {
		return &wire.LocateResp{At: n.id}, nil
	}
	if err := n.whereabouts(req.Obj); err.Code == wire.CodeMoved {
		return &wire.LocateResp{At: err.To}, nil
	}
	return nil, wire.Errorf(wire.CodeNotFound, "object %s unknown at %s", req.Obj, n.id)
}

// Locate resolves the node currently hosting the object by following
// hints and forwarding pointers. Each attempt re-derives its starting
// point from the registry, folding everything learnt back in.
func (n *Node) Locate(ctx context.Context, ref Ref) (NodeID, error) {
	oid := ref.OID
	next := NodeID("")
	c := n.newChase(oid)
	defer c.end()
	for c.next(ctx) {
		rec, hint := n.store.Lookup(oid)
		if rec != nil {
			return n.id, nil
		}
		target := next
		if target == "" || target == n.id {
			target = hint
		}
		next = ""
		if target == n.id {
			if n.selfHintRetry(oid) {
				continue // an arrival raced the two lookups
			}
			return "", fmt.Errorf("%w: %s", ErrNotFound, oid)
		}
		var resp wire.LocateResp
		c.hop()
		err := n.call(ctx, target, wire.KLocate, &wire.LocateReq{Obj: oid}, &resp)
		if err != nil {
			if to, moved := movedTo(err); moved {
				n.store.Learn(oid, to)
				next = to
				continue
			}
			if isCode(err, wire.CodeNotFound) && target != oid.Origin {
				n.store.InvalidateAt(oid, target)
				continue
			}
			return "", fromRemote(err)
		}
		if resp.At == target {
			n.store.Learn(oid, resp.At)
			return resp.At, nil
		}
		n.store.Learn(oid, resp.At)
		next = resp.At
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%w: %s (locate)", ErrUnreachable, oid)
}
