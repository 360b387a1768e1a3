package core

// This file implements the move-policies of the paper: what happens when
// a move-request or an end-request reaches the current host of an
// object. The decision logic runs at the object's current location
// (paper Fig. 3) in both the simulator and the live runtime; this
// package only decides, it never performs the transfer.

// PolicyKind enumerates the move-policies evaluated in the paper.
type PolicyKind int

const (
	// PolicySedentary never migrates: the "without migration"
	// baseline of every figure.
	PolicySedentary PolicyKind = iota + 1
	// PolicyConventional is the classic Emerald-style move: every
	// move-request migrates the object to the caller (Section 2.3).
	PolicyConventional
	// PolicyPlacement is the paper's transient placement
	// (Section 3.2): the first move-block wins and locks the object
	// until its end-request; conflicting moves are denied.
	PolicyPlacement
	// PolicyCompareNodes is the first dynamic extension
	// (Section 3.3/4.3): per-node counters of open move-requests; the
	// object migrates towards a node holding strictly more open
	// requests than its current host. Migration happens only on
	// move-requests.
	PolicyCompareNodes
	// PolicyCompareReinstantiate additionally migrates on
	// end-requests when some other node then holds a clear majority
	// of open move-requests (Section 4.3, "comparing and
	// reinstantiation").
	PolicyCompareReinstantiate
)

// String returns the paper's name for the policy.
func (k PolicyKind) String() string {
	switch k {
	case PolicySedentary:
		return "sedentary"
	case PolicyConventional:
		return "conventional"
	case PolicyPlacement:
		return "placement"
	case PolicyCompareNodes:
		return "compare-nodes"
	case PolicyCompareReinstantiate:
		return "compare-reinstantiate"
	default:
		return "unknown"
	}
}

// Valid reports whether k names a known policy.
func (k PolicyKind) Valid() bool {
	return k >= PolicySedentary && k <= PolicyCompareReinstantiate
}

// LockState is the transient-placement lock: while held, the object is
// sedentary and belongs to one move-block. It travels with the object.
type LockState struct {
	Held  bool
	Owner NodeID
	Block BlockID
}

// ObjState is the migration-relevant per-object state. It is carried
// inside the object's host record and is part of the linearised
// representation transferred on migration, so locks, counters and the
// fixed flag survive moves. The wire codec encodes it field by field
// (see docs/wire-format.md, "Snapshot layout").
type ObjState struct {
	// Fixed marks the object sedentary (fix()-primitive,
	// Section 2.2). Fixed objects deny every move and migrate.
	Fixed bool
	// Lock is the transient-placement lock (Section 3.2).
	Lock LockState
	// OpenMoves counts, per node, move-requests that have not yet
	// been matched by an end-request. Only the dynamic policies
	// (Section 3.3) maintain it.
	OpenMoves map[NodeID]int
}

// Clone returns a deep copy of the state (the map is copied).
func (st *ObjState) Clone() ObjState {
	c := *st
	if st.OpenMoves != nil {
		c.OpenMoves = make(map[NodeID]int, len(st.OpenMoves))
		for k, v := range st.OpenMoves {
			c.OpenMoves[k] = v
		}
	}
	return c
}

// openMovesAt returns the open-move count for a node (0 if absent).
func (st *ObjState) openMovesAt(n NodeID) int { return st.OpenMoves[n] }

// incOpen increments the open-move counter for node n.
func (st *ObjState) incOpen(n NodeID) {
	if st.OpenMoves == nil {
		st.OpenMoves = make(map[NodeID]int)
	}
	st.OpenMoves[n]++
}

// decOpen decrements the open-move counter for node n, never below zero,
// and removes exhausted entries to keep the transferred state small.
func (st *ObjState) decOpen(n NodeID) {
	c, ok := st.OpenMoves[n]
	if !ok {
		return
	}
	if c <= 1 {
		delete(st.OpenMoves, n)
		return
	}
	st.OpenMoves[n] = c - 1
}

// MoveRequest is a move-primitive arriving at the object's current host.
type MoveRequest struct {
	From  NodeID  // node the issuing move-block runs on
	Block BlockID // identity of the issuing move-block
}

// EndRequest closes a move-block.
type EndRequest struct {
	From  NodeID
	Block BlockID
}

// MoveAction is the host's reaction to a move-request.
type MoveAction int

const (
	// ActionDeny leaves the object where it is; the issuing block's
	// calls proceed to the object's current location ("the further
	// calls at this node are forwarded to the object").
	ActionDeny MoveAction = iota + 1
	// ActionStay means the object is already at the caller's node; no
	// transfer happens, but the move succeeds (and locks, under
	// placement).
	ActionStay
	// ActionMigrate transfers the object (and, with attachments, its
	// closure) to the caller's node.
	ActionMigrate
)

// DenyReason explains an ActionDeny, mainly for diagnostics and tests.
type DenyReason int

const (
	// ReasonNone: the move was not denied.
	ReasonNone DenyReason = iota
	// ReasonPolicy: the policy never migrates (sedentary).
	ReasonPolicy
	// ReasonFixed: the object is fixed.
	ReasonFixed
	// ReasonLocked: a transient-placement lock is held by another
	// block.
	ReasonLocked
	// ReasonOutvoted: a dynamic policy kept the object at a node with
	// at least as many open move-requests.
	ReasonOutvoted
)

// MoveDecision is the outcome of a move-request.
type MoveDecision struct {
	Action MoveAction
	Reason DenyReason // set when Action == ActionDeny
}

// EndDecision is the outcome of an end-request. Under
// comparing-and-reinstantiation an end may itself trigger a migration.
type EndDecision struct {
	Unlocked  bool   // a placement lock was released
	Migrate   bool   // reinstantiation: migrate the object now
	MigrateTo NodeID // target when Migrate is true
}

// MovePolicy decides move- and end-requests against an object's state.
// Implementations are stateless; all mutable state lives in ObjState so
// that it travels with the object.
type MovePolicy interface {
	Kind() PolicyKind
	// OnMove decides a move-request for an object currently at cur.
	// It may mutate st (grab the lock, bump counters). A decision of
	// ActionMigrate means the caller must transfer the object; if the
	// transfer aborts, it must call Abort to undo state changes.
	OnMove(st *ObjState, cur NodeID, req MoveRequest) MoveDecision
	// OnEnd processes an end-request for an object currently at cur.
	OnEnd(st *ObjState, cur NodeID, req EndRequest) EndDecision
	// Abort undoes the state effects of a granted move whose transfer
	// failed (e.g. target unreachable in the live runtime).
	Abort(st *ObjState, req MoveRequest)
}

// PolicyFor returns the singleton implementation for a kind. It panics
// on an invalid kind; use PolicyKind.Valid to validate input first.
func PolicyFor(kind PolicyKind) MovePolicy {
	switch kind {
	case PolicySedentary:
		return sedentaryPolicy{}
	case PolicyConventional:
		return conventionalPolicy{}
	case PolicyPlacement:
		return placementPolicy{}
	case PolicyCompareNodes:
		return comparePolicy{reinstantiate: false}
	case PolicyCompareReinstantiate:
		return comparePolicy{reinstantiate: true}
	default:
		panic("core: invalid policy kind")
	}
}

// sedentaryPolicy never migrates.
type sedentaryPolicy struct{}

var _ MovePolicy = sedentaryPolicy{}

func (sedentaryPolicy) Kind() PolicyKind { return PolicySedentary }

func (sedentaryPolicy) OnMove(st *ObjState, cur NodeID, req MoveRequest) MoveDecision {
	if cur == req.From {
		return MoveDecision{Action: ActionStay}
	}
	return MoveDecision{Action: ActionDeny, Reason: ReasonPolicy}
}

func (sedentaryPolicy) OnEnd(st *ObjState, cur NodeID, req EndRequest) EndDecision {
	return EndDecision{}
}

func (sedentaryPolicy) Abort(st *ObjState, req MoveRequest) {}

// conventionalPolicy always migrates to the caller (unless fixed).
type conventionalPolicy struct{}

var _ MovePolicy = conventionalPolicy{}

func (conventionalPolicy) Kind() PolicyKind { return PolicyConventional }

func (conventionalPolicy) OnMove(st *ObjState, cur NodeID, req MoveRequest) MoveDecision {
	if st.Fixed {
		return MoveDecision{Action: ActionDeny, Reason: ReasonFixed}
	}
	if cur == req.From {
		return MoveDecision{Action: ActionStay}
	}
	return MoveDecision{Action: ActionMigrate}
}

func (conventionalPolicy) OnEnd(st *ObjState, cur NodeID, req EndRequest) EndDecision {
	return EndDecision{}
}

func (conventionalPolicy) Abort(st *ObjState, req MoveRequest) {}

// placementPolicy is transient placement (Section 3.2): first mover
// wins and locks; the lock is released by the owner's end-request;
// conflicting end-requests are ignored.
type placementPolicy struct{}

var _ MovePolicy = placementPolicy{}

func (placementPolicy) Kind() PolicyKind { return PolicyPlacement }

func (placementPolicy) OnMove(st *ObjState, cur NodeID, req MoveRequest) MoveDecision {
	if st.Fixed {
		return MoveDecision{Action: ActionDeny, Reason: ReasonFixed}
	}
	if st.Lock.Held {
		if st.Lock.Owner == req.From && st.Lock.Block == req.Block {
			// Idempotent re-delivery of the winning move.
			return MoveDecision{Action: ActionStay}
		}
		return MoveDecision{Action: ActionDeny, Reason: ReasonLocked}
	}
	// Grab the lock at grant time: a second move arriving while the
	// object is in transit must already see it locked. (The paper
	// locks "as soon as it arrives"; granting atomically at the old
	// host is behaviourally identical and race-free.)
	st.Lock = LockState{Held: true, Owner: req.From, Block: req.Block}
	if cur == req.From {
		return MoveDecision{Action: ActionStay}
	}
	return MoveDecision{Action: ActionMigrate}
}

func (placementPolicy) OnEnd(st *ObjState, cur NodeID, req EndRequest) EndDecision {
	if st.Lock.Held && st.Lock.Owner == req.From && st.Lock.Block == req.Block {
		st.Lock = LockState{}
		return EndDecision{Unlocked: true}
	}
	// "...the end-request is simply ignored, as nothing has to be
	// done."
	return EndDecision{}
}

func (placementPolicy) Abort(st *ObjState, req MoveRequest) {
	if st.Lock.Held && st.Lock.Owner == req.From && st.Lock.Block == req.Block {
		st.Lock = LockState{}
	}
}

// comparePolicy implements the two dynamic strategies of Section 3.3.
// Both maintain per-node counters of open move-requests; the object is
// kept at a node holding a maximal number of open requests.
type comparePolicy struct {
	reinstantiate bool
}

var (
	_ MovePolicy = comparePolicy{}
)

func (p comparePolicy) Kind() PolicyKind {
	if p.reinstantiate {
		return PolicyCompareReinstantiate
	}
	return PolicyCompareNodes
}

func (p comparePolicy) OnMove(st *ObjState, cur NodeID, req MoveRequest) MoveDecision {
	st.incOpen(req.From)
	if st.Fixed {
		return MoveDecision{Action: ActionDeny, Reason: ReasonFixed}
	}
	if cur == req.From {
		return MoveDecision{Action: ActionStay}
	}
	// Migrate only towards a strictly leading node: "it tries to keep
	// objects always at those nodes from where the most move-requests
	// have been issued".
	if st.openMovesAt(req.From) > st.openMovesAt(cur) {
		return MoveDecision{Action: ActionMigrate}
	}
	return MoveDecision{Action: ActionDeny, Reason: ReasonOutvoted}
}

func (p comparePolicy) OnEnd(st *ObjState, cur NodeID, req EndRequest) EndDecision {
	st.decOpen(req.From)
	if !p.reinstantiate || st.Fixed {
		return EndDecision{}
	}
	// Reinstantiation: migrate on end only when some other node holds
	// a clear majority of all open move-requests (strictly more than
	// half) and strictly more than the current host. Iterate
	// deterministically for reproducibility.
	curCount := st.openMovesAt(cur)
	total := 0
	nodes := make([]NodeID, 0, len(st.OpenMoves))
	for n, c := range st.OpenMoves {
		nodes = append(nodes, n)
		total += c
	}
	sortNodeIDs(nodes)
	for _, n := range nodes {
		c := st.OpenMoves[n]
		if n == cur {
			continue
		}
		if 2*c > total && c > curCount {
			return EndDecision{Migrate: true, MigrateTo: n}
		}
	}
	return EndDecision{}
}

func (p comparePolicy) Abort(st *ObjState, req MoveRequest) {
	// The open request stays open (the block is still running); only
	// the transfer failed. Nothing to undo.
}

// sortNodeIDs sorts node IDs lexicographically, in place.
func sortNodeIDs(ns []NodeID) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// PlaceGroup extends a granted placement lock to every member of the
// moved working set: "the system guarantees that attached objects are
// kept together", so a placed block makes its whole working set
// sedentary until the end-request. Conflicting moves then deny on any
// member, which is exactly why conflicting moves "will not lead to the
// migration of ... objects attached to it" (Section 4.4).
func PlaceGroup(members []*ObjState, owner NodeID, block BlockID) {
	for _, st := range members {
		st.Lock = LockState{Held: true, Owner: owner, Block: block}
	}
}

// ReleaseGroup releases every member lock held by the given block. It
// is the group counterpart of the owner's end-request and ignores locks
// held by other blocks.
func ReleaseGroup(members []*ObjState, owner NodeID, block BlockID) {
	for _, st := range members {
		if st.Lock.Held && st.Lock.Owner == owner && st.Lock.Block == block {
			st.Lock = LockState{}
		}
	}
}
