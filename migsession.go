package objmig

// Group migration sessions, target side and shared config.
//
// A group migration is a bounded pipeline rather than one blob, so a
// large working set is never materialised whole on the coordinator or
// the target:
//
//	coordinator                         target
//	-----------                         ------
//	MigrateBegin(token, members) ─────► open session (TTL janitor armed)
//	InstallChunk(token, snaps…)  ─────► decode + stage (≤ ChunkBytes)
//	InstallChunk(token, snaps…)  ─────► decode + stage
//	…
//	InstallCommit(token)         ─────► InstallBatch: whole group,
//	                                    one shard-aware atomic swap
//
// The begin frame may carry the first chunk, and with Commit set it is
// the whole exchange: a group on one host that fits one chunk is
// admitted, staged and installed by a single frame, and its session
// never enters the table.
//
// The target stages decoded records in a session buffer keyed by
// (coordinator, token) and installs the whole group only at commit, so
// the paper's "group moves as a unit" invariant survives chunking: an
// abort or crash anywhere before commit leaves the target exactly as
// it was. Two failure detectors make a dead coordinator harmless:
//
//   - the session TTL discards a staging session that stops receiving
//     traffic, so the target never leaks half-streamed state;
//   - the pause lease (see PauseReq.Lease) fires at source hosts when
//     neither commit nor abort arrives, and resolves the migration's
//     outcome against the target — resuming the objects only once the
//     install provably never happened (see resolveExpiredLease).

import (
	"context"
	"errors"
	"time"

	"objmig/internal/core"
	"objmig/internal/store"
	"objmig/internal/telemetry"
	"objmig/internal/wire"
)

// DefaultChunkBytes is the default size bound of one InstallChunk
// frame's encoded snapshot payload.
const DefaultChunkBytes = 256 << 10

// MigrateConfig tunes the streaming group-migration transfer. The zero
// value selects the documented defaults.
type MigrateConfig struct {
	// ChunkBytes bounds the encoded snapshot bytes per InstallChunk
	// frame (and per PauseResp, via PauseReq.MaxBytes) — the
	// coordinator's peak per-frame buffering. A single snapshot larger
	// than the bound still travels (in a chunk of its own). Default
	// 256 KiB; negative disables the bound (monolithic frames).
	ChunkBytes int
	// SessionTTL is how long the target keeps a staging session that
	// receives no traffic before discarding it (coordinator death).
	// Default 30s; negative disables expiry.
	SessionTTL time.Duration
	// PauseLease is how long a source host keeps objects paused for a
	// migration that neither commits nor aborts before resuming them
	// on its own. It must comfortably exceed the worst-case transfer
	// time: the coordinator refuses to commit once half the lease has
	// elapsed, so a lagging migration aborts instead of racing the
	// auto-resume. Default 30s; negative disables the lease.
	PauseLease time.Duration
}

// withDefaults fills the zero fields.
func (c MigrateConfig) withDefaults() MigrateConfig {
	if c.ChunkBytes == 0 {
		c.ChunkBytes = DefaultChunkBytes
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 30 * time.Second
	}
	if c.PauseLease == 0 {
		c.PauseLease = 30 * time.Second
	}
	return c
}

// sessionKey identifies a staging session. Tokens are only unique per
// coordinator, so the coordinator's identity is part of the key.
type sessionKey struct {
	from  NodeID
	token uint64
}

// migSession is one in-progress transfer at the target: decoded
// records staged chunk by chunk until commit or discard. All mutation
// of a session in the table happens under the node's sessMu; the
// struct itself has no lock.
type migSession struct {
	key     sessionKey
	expect  map[core.OID]bool
	staged  map[core.OID]bool
	recs    []*store.Record
	bytes   int64
	trace   uint64      // the migration's TraceID (0 when untraced)
	touched time.Time   // last traffic; re-checked by the TTL janitor
	timer   *time.Timer // TTL janitor; nil when expiry is disabled
}

// stage adds one decoded chunk to the session. Every snapshot must be
// an expected member not staged before.
func (s *migSession) stage(snaps []wire.Snapshot, recs []*store.Record, bytes int64) *wire.RemoteError {
	for i := range snaps {
		oid := snaps[i].ID
		if !s.expect[oid] {
			return wire.Errorf(wire.CodeBadRequest, "chunk carries %s, not a member of session %d", oid, s.key.token)
		}
		if s.staged[oid] {
			return wire.Errorf(wire.CodeBadRequest, "chunk re-stages %s in session %d", oid, s.key.token)
		}
		s.staged[oid] = true
	}
	s.recs = append(s.recs, recs...)
	s.bytes += bytes
	return nil
}

// handleMigrateBegin opens a migration session. Snapshots the begin
// frame carries are staged as the session's first chunk; with Commit
// set the group is installed at once and the session is never stored,
// so no TTL timer is armed for it.
func (n *Node) handleMigrateBegin(req *wire.MigrateBeginReq) (*wire.MigrateBeginResp, error) {
	if len(req.Objs) == 0 {
		return nil, wire.Errorf(wire.CodeBadRequest, "migrate-begin with no members")
	}
	key := sessionKey{from: req.From, token: req.Token}
	if n.migrationAborted(key) {
		return nil, wire.Errorf(wire.CodeDenied, "migration %d from %s was aborted", req.Token, req.From)
	}
	// The placement admission runs before the session opens: a
	// coordinator with a stale load view learns here — with this
	// node's authoritative counts — that the group will not fit, before
	// a single member is paused or a single chunk streamed. When the
	// group is admitted, its (objects, bytes) are claimed in the
	// reservation ledger under the session's own key, so concurrent
	// coordinators cannot collectively overshoot the capacity the veto
	// defends: each admission sees every earlier claim as if it were
	// already resident. Carried snapshots claim at least their encoded
	// size.
	bytes := max(req.Bytes, snapshotBytes(req.Snapshots))
	reserved, err := n.admitAndReserve(req.Objs, bytes, req.From, req.Token)
	if err != nil {
		return nil, err
	}
	s := &migSession{
		key:     key,
		expect:  make(map[core.OID]bool, len(req.Objs)),
		staged:  make(map[core.OID]bool, len(req.Objs)),
		trace:   req.Trace,
		touched: time.Now(),
	}
	for _, oid := range req.Objs {
		s.expect[oid] = true
	}
	if len(req.Snapshots) > 0 {
		start := time.Now()
		recs, chunk, rerr := n.decodeChunk(req.Snapshots, req.Token)
		if rerr == nil {
			rerr = s.stage(req.Snapshots, recs, chunk)
		}
		if rerr != nil {
			n.releaseReservation(req.From, req.Token)
			return nil, rerr
		}
		n.chunkStaged(req.Trace, start, chunk, len(recs))
	}
	if !req.Commit {
		n.sessMu.Lock()
		if _, dup := n.sessions[key]; dup {
			n.sessMu.Unlock()
			// Keep the claim: it carries the same (coordinator, token)
			// key as the open session's, so the ledger entry still
			// backs the transfer that is actually in flight.
			return nil, wire.Errorf(wire.CodeDenied, "migration session %d from %s already open", req.Token, req.From)
		}
		if ttl := n.migrate.SessionTTL; ttl > 0 {
			s.timer = time.AfterFunc(ttl, func() { n.expireSession(key) })
		}
		n.sessions[key] = s
		n.sessMu.Unlock()
	}
	n.stats.streamSessionsOpened.Add(1)
	n.emit(Event{Kind: EventMigrateStream, Target: req.From, Outcome: "begin"})
	if req.Commit {
		if err := n.installSession(s); err != nil {
			return nil, err
		}
	}
	resp := &wire.MigrateBeginResp{Reserved: reserved}
	if reserved {
		resp.ReservedBytes = bytes
	}
	return resp, nil
}

// decodeChunk reinstantiates one chunk of snapshots as records and
// returns them with the chunk's snapshot bytes. Records are decoded
// here, at staging time, so an unknown type, a corrupt state blob or a
// conflicting live object fails the transfer early — the coordinator
// aborts instead of discovering the problem at commit. Callers decode
// outside the session lock: state blobs can be large.
func (n *Node) decodeChunk(snaps []wire.Snapshot, token uint64) ([]*store.Record, int64, *wire.RemoteError) {
	recs := make([]*store.Record, len(snaps))
	var bytes int64
	for i := range snaps {
		snap := &snaps[i]
		rec, err := n.decodeSnapshot(snap)
		if err != nil {
			var re *wire.RemoteError
			if !errors.As(err, &re) {
				re = wire.Errorf(wire.CodeInternal, "stage %s: %v", snap.ID, err)
			}
			return nil, 0, re
		}
		if err := n.store.Installable(snap.ID, token); err != nil {
			var re *wire.RemoteError
			if !errors.As(err, &re) {
				re = wire.Errorf(wire.CodeDenied, "stage %s: %v", snap.ID, err)
			}
			return nil, 0, re
		}
		recs[i] = rec
		bytes += int64(wire.SnapshotSize(snap))
	}
	return recs, bytes, nil
}

// chunkStaged records one staged chunk: the stage span covers decode
// and bookkeeping — the target-side cost of one chunk.
func (n *Node) chunkStaged(trace uint64, start time.Time, bytes int64, objects int) {
	n.tel.span(trace, telemetry.PhaseStage, start, bytes, objects)
	n.stats.streamChunksIn.Add(1)
	n.stats.streamBytesIn.Add(bytes)
}

// handleInstallChunk stages one chunk of snapshots into its session.
// A failed chunk dooms the whole transfer, so the session is discarded
// on any error.
func (n *Node) handleInstallChunk(req *wire.InstallChunkReq) (*wire.InstallChunkResp, error) {
	key := sessionKey{from: req.From, token: req.Token}
	fail := func(err *wire.RemoteError) (*wire.InstallChunkResp, error) {
		n.dropSession(key, "abort")
		return nil, err
	}
	// Cheap existence check first: a chunk racing its session's expiry
	// or abort should not pay for decoding megabytes it will discard.
	// The authoritative re-check below still runs under the lock.
	n.sessMu.Lock()
	_, open := n.sessions[key]
	n.sessMu.Unlock()
	if !open {
		return nil, wire.Errorf(wire.CodeDenied, "no migration session %d from %s (expired?)", req.Token, req.From)
	}
	start := time.Now()
	recs, bytes, rerr := n.decodeChunk(req.Snapshots, req.Token)
	if rerr != nil {
		return fail(rerr)
	}

	n.sessMu.Lock()
	s, ok := n.sessions[key]
	if !ok {
		n.sessMu.Unlock()
		return nil, wire.Errorf(wire.CodeDenied, "no migration session %d from %s (expired?)", req.Token, req.From)
	}
	if rerr := s.stage(req.Snapshots, recs, bytes); rerr != nil {
		n.sessMu.Unlock()
		return fail(rerr)
	}
	s.touched = time.Now()
	if s.timer != nil {
		s.timer.Reset(n.migrate.SessionTTL)
	}
	staged := len(s.recs)
	n.sessMu.Unlock()

	n.chunkStaged(req.Trace, start, bytes, len(req.Snapshots))
	return &wire.InstallChunkResp{Staged: staged}, nil
}

// handleInstallCommit closes a session and installs its group (see
// installSession). Whatever the outcome, the session is gone
// afterwards.
func (n *Node) handleInstallCommit(req *wire.InstallCommitReq) (*wire.InstallCommitResp, error) {
	key := sessionKey{from: req.From, token: req.Token}
	n.sessMu.Lock()
	s, ok := n.sessions[key]
	if ok {
		delete(n.sessions, key)
		if s.timer != nil {
			s.timer.Stop()
		}
	}
	n.sessMu.Unlock()
	if !ok {
		return nil, wire.Errorf(wire.CodeDenied, "no migration session %d from %s (expired?)", req.Token, req.From)
	}
	if err := n.installSession(s); err != nil {
		return nil, err
	}
	return &wire.InstallCommitResp{Installed: len(s.recs)}, nil
}

// installSession installs a session that is out of the table (or
// never entered it): every expected member must be staged, and the
// whole group is installed in one atomic shard-aware batch. The
// session's reservation is released whatever the outcome.
func (n *Node) installSession(s *migSession) error {
	// The reservation is released only after InstallBatch: between the
	// install and the release the group is briefly counted twice (as
	// residency and as a claim), which errs on the safe side — hosted
	// plus reserved never undercounts what the node is committed to.
	defer n.releaseReservation(s.key.from, s.key.token)
	if missing := len(s.expect) - len(s.staged); missing > 0 {
		return wire.Errorf(wire.CodeBadRequest,
			"commit of session %d from %s with %d of %d members unstaged", s.key.token, s.key.from, missing, len(s.expect))
	}
	start := time.Now()
	if err := n.store.InstallBatch(s.recs, s.key.token); err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return re
		}
		return wire.Errorf(wire.CodeInternal, "install: %v", err)
	}
	// Members that were paused *here* (the target hosted some of the
	// group) were just replaced by the installation; their lease must
	// not fire later and there is nothing left for it to resume.
	n.cancelPauseLease(s.key)
	n.tel.span(s.trace, telemetry.PhaseInstall, start, s.bytes, len(s.recs))
	installed := make([]Ref, len(s.recs))
	for i, rec := range s.recs {
		installed[i] = Ref{OID: rec.ID}
	}
	n.stats.objectsInstalled.Add(int64(len(s.recs)))
	n.emit(Event{Kind: EventInstall, Objects: installed})
	n.emit(Event{Kind: EventMigrateStream, Target: s.key.from, Outcome: "commit", Bytes: s.bytes})
	return nil
}

// expireSession is the TTL janitor: a session that stopped receiving
// traffic is discarded, staged records and all. Fired by the session's
// timer; a commit or abort that won the race removed the session from
// the map first, making this a no-op, and a chunk that refreshed the
// session while the fired timer waited on the lock (Reset cannot stop
// an already-fired AfterFunc) is detected via the activity stamp.
func (n *Node) expireSession(key sessionKey) {
	n.sessMu.Lock()
	if s, ok := n.sessions[key]; ok && s.timer != nil {
		if remain := n.migrate.SessionTTL - time.Since(s.touched); remain > 0 {
			s.timer.Reset(remain) // refreshed concurrently: still live
			n.sessMu.Unlock()
			return
		}
	}
	n.sessMu.Unlock()
	if n.dropSession(key, "expire") {
		n.stats.streamSessionsExpired.Add(1)
	}
}

// dropSession discards a staging session, reporting whether it
// existed. outcome labels the emitted event ("abort" or "expire").
// The session's capacity claim is released whether or not the session
// itself still exists: an abort can race a commit that already removed
// the session but failed its install, leaving only the claim behind.
func (n *Node) dropSession(key sessionKey, outcome string) bool {
	n.releaseReservation(key.from, key.token)
	n.sessMu.Lock()
	s, ok := n.sessions[key]
	if ok {
		delete(n.sessions, key)
		if s.timer != nil {
			s.timer.Stop()
		}
	}
	n.sessMu.Unlock()
	if !ok {
		return false
	}
	if outcome == "abort" {
		n.stats.streamAborts.Add(1)
	}
	n.emit(Event{Kind: EventMigrateStream, Target: key.from, Outcome: outcome, Bytes: s.bytes})
	return true
}

// abortFence plants a tombstone for an aborted migration: pauses and
// session-begins for (coordinator, token) are refused afterwards, so a
// frame that was in flight when the abort (or a lease resume) happened
// cannot land late and duplicate objects the sources already resumed.
// Tokens are never reused, so a tombstone can only ever block the one
// migration it names. Old tombstones are pruned lazily.
func (n *Node) abortFence(key sessionKey) {
	ttl := 2 * n.migrate.SessionTTL
	if ttl <= 0 {
		ttl = time.Minute
	}
	now := time.Now()
	n.sessMu.Lock()
	for k, t := range n.tombs {
		if now.Sub(t) > ttl {
			delete(n.tombs, k)
		}
	}
	n.tombs[key] = now
	n.sessMu.Unlock()
}

// migrationAborted reports whether the migration's abort fence is up.
func (n *Node) migrationAborted(key sessionKey) bool {
	n.sessMu.Lock()
	_, ok := n.tombs[key]
	n.sessMu.Unlock()
	return ok
}

// closeSessions discards every staging session (node shutdown).
func (n *Node) closeSessions() {
	n.sessMu.Lock()
	sessions := n.sessions
	n.sessions = make(map[sessionKey]*migSession)
	n.sessMu.Unlock()
	for _, s := range sessions {
		if s.timer != nil {
			s.timer.Stop()
		}
	}
}

// sessionCount reports the number of open staging sessions (tests,
// diagnostics).
func (n *Node) sessionCount() int {
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	return len(n.sessions)
}

// --- Pause leases (source side) ---

// pauseLease tracks the objects a host paused for one migration
// (keyed, like staging sessions, by coordinator and token — tokens are
// only node-unique) and the timer that resolves their fate if the
// coordinator vanishes.
type pauseLease struct {
	objs    []core.OID
	target  NodeID // migration target; consulted when the lease fires
	lease   time.Duration
	touched time.Time
	timer   *time.Timer
}

// armPauseLease (re)arms a migration's lease: newly paused objects
// join the covered set and the clock restarts — a multi-batch pause
// keeps extending its own deadline, so the lease measures coordinator
// silence, not total migration time.
func (n *Node) armPauseLease(key sessionKey, target NodeID, objs []core.OID, lease time.Duration) {
	n.leaseMu.Lock()
	defer n.leaseMu.Unlock()
	l, ok := n.leases[key]
	if !ok {
		l = &pauseLease{target: target, lease: lease}
		l.timer = time.AfterFunc(lease, func() { n.firePauseLease(key) })
		n.leases[key] = l
	} else {
		l.lease = lease
		l.timer.Reset(lease)
	}
	l.touched = time.Now()
	l.objs = append(l.objs, objs...)
}

// cancelPauseLease disarms a migration's lease (commit or abort
// arrived).
func (n *Node) cancelPauseLease(key sessionKey) {
	n.leaseMu.Lock()
	l, ok := n.leases[key]
	if ok {
		delete(n.leases, key)
		l.timer.Stop()
	}
	n.leaseMu.Unlock()
}

// firePauseLease handles coordinator silence on a migration that
// paused objects here. A timer that raced a concurrent re-arm (Reset
// cannot stop an already-fired AfterFunc) re-checks the last-activity
// stamp and backs off. A genuinely silent migration is resolved, not
// blindly resumed — see resolveExpiredLease.
func (n *Node) firePauseLease(key sessionKey) {
	n.leaseMu.Lock()
	l, ok := n.leases[key]
	if !ok {
		n.leaseMu.Unlock()
		return
	}
	if remain := l.lease - time.Since(l.touched); remain > 0 {
		l.timer.Reset(remain) // re-armed concurrently: not actually silent
		n.leaseMu.Unlock()
		return
	}
	delete(n.leases, key)
	n.leaseMu.Unlock()
	n.resolveExpiredLease(key, l)
}

// resolveExpiredLease decides an abandoned migration's outcome. The
// danger is the window after the target committed the install but
// before our CommitReq arrived: resuming then would leave the object
// live in two places. The install is atomic — all members or none — so
// asking the target about one member answers for the whole group:
//
//   - the target (authoritatively) hosts the member → the install
//     committed; finish our side of the commit (forwarding stubs).
//   - the target denies knowledge, or authoritatively places the
//     member back here → the install never committed; resume.
//   - anything else (unreachable target, a third-party answer) →
//     uncertain; stay paused and re-arm the lease. A stuck-but-paused
//     object is consistent and recoverable, a duplicated one is not.
func (n *Node) resolveExpiredLease(key sessionKey, l *pauseLease) {
	n.stats.pauseLeasesExpired.Add(1)
	outcome := "lease-resumed"
	verdict := n.expiredLeaseVerdict(key, l)
	if verdict == leaseAborted && l.target != "" && l.target != n.id {
		// Fence before resuming: plant the abort tombstone at the
		// target so an install frame still in flight cannot land after
		// the objects come back to life here. If the fence cannot be
		// confirmed, stay paused and retry — consistency over
		// availability.
		if !n.fenceRemote(key, l.target) {
			verdict = leaseUnknown
		}
	}
	switch verdict {
	case leaseCommitted:
		// Run the commit the coordinator never delivered.
		outcome = "lease-committed"
		n.commitLocal(&wire.CommitReq{Objs: l.objs, NewHome: l.target, Token: key.token, From: key.from})
	case leaseAborted:
		for _, rec := range n.store.GetBatch(l.objs) {
			if rec != nil {
				rec.Unpause(key.token)
			}
		}
	case leaseUnknown:
		outcome = "lease-retry"
		n.leaseMu.Lock()
		if _, exists := n.leases[key]; !exists {
			l.touched = time.Now()
			l.timer = time.AfterFunc(l.lease, func() { n.firePauseLease(key) })
			n.leases[key] = l
		}
		n.leaseMu.Unlock()
	}
	refs := make([]Ref, len(l.objs))
	for i, oid := range l.objs {
		refs[i] = Ref{OID: oid}
	}
	n.emit(Event{Kind: EventMigrateStream, Target: l.target, Outcome: outcome, Objects: refs})
}

type leaseVerdict int

const (
	leaseAborted leaseVerdict = iota
	leaseCommitted
	leaseUnknown
)

// expiredLeaseVerdict asks the migration target whether the install
// committed. Locate answers with authoritative knowledge only
// (hosting, forwarding pointers, the origin's home index — never
// cached hearsay), which is what makes the verdict trustworthy.
func (n *Node) expiredLeaseVerdict(key sessionKey, l *pauseLease) leaseVerdict {
	if len(l.objs) == 0 {
		return leaseAborted
	}
	if l.target == "" || l.target == n.id {
		// No target recorded (legacy pause), or the target is this very
		// node: a committed install already replaced our paused records,
		// making Unpause a token-checked no-op. Blind resume is safe.
		return leaseAborted
	}
	probe := l.objs[0]
	actx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp wire.LocateResp
	err := n.call(actx, l.target, wire.KLocate, &wire.LocateReq{Obj: probe}, &resp)
	switch {
	case err == nil && resp.At == l.target:
		return leaseCommitted
	case err == nil && resp.At == n.id:
		return leaseAborted // the target's authoritative view points back here
	case err == nil && probe.Origin != l.target:
		// The target answered with a forward to a third node. For an
		// object it did not create, the only way the target owns a
		// forwarding pointer is having hosted the object: the install
		// committed and the group has since migrated on. (When the
		// target IS the origin, a third-party answer may come from its
		// stale home index instead — that case stays unknown below.)
		return leaseCommitted
	case isCode(err, wire.CodeNotFound):
		return leaseAborted // target never installed (nor ever forwarded) it
	default:
		return leaseUnknown
	}
}

// fenceRemote plants the abort tombstone for (key) at the target via a
// best-effort AbortReq carrying no objects, reporting whether the
// target acknowledged it.
func (n *Node) fenceRemote(key sessionKey, target NodeID) bool {
	actx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp wire.AbortResp
	err := n.call(actx, target, wire.KAbort, &wire.AbortReq{Token: key.token, From: key.from}, &resp)
	return err == nil
}

// closePauseLeases stops every lease timer (node shutdown).
func (n *Node) closePauseLeases() {
	n.leaseMu.Lock()
	leases := n.leases
	n.leases = make(map[sessionKey]*pauseLease)
	n.leaseMu.Unlock()
	for _, l := range leases {
		l.timer.Stop()
	}
}
