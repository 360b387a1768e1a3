package wire

// The codec behind Marshal/MarshalAppend/Unmarshal. Every body type
// carries its own encoder and decoder, side by side below:
//
//   - appendTo(b) has a value receiver, so value and pointer forms both
//     encode. It appends [tag][varint-framed fields] to b with zero
//     reflection and no per-message encoder state.
//   - decodeFrom(r) has a pointer receiver. It checks the tag and reads
//     the fields back in the same order.
//
// Encoders are append-style: they extend the destination slice in
// place, so the rpc layer can reserve a frame header and have the body
// land directly behind it in the same (pooled) buffer — a message is
// encoded exactly once, into its final frame. Bodies that can carry
// bulk payloads call grow before writing their tag. See MarshalAppend
// in wire.go for the buffer-ownership rules and docs/wire-format.md
// for every layout.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"objmig/internal/core"
	"objmig/internal/framebuf"
)

// One tag per body. Tags are append-only: a new body takes the next
// number, and a layout, once shipped, is frozen under its tag.
const (
	tagGob byte = iota // retired: the former gob fallback; refused like any unknown tag
	tagInvokeReq
	tagInvokeResp
	tagLocateReq
	tagLocateResp
	tagHomeUpdate
	tagHomeUpdateResp
	tagSnapshot
	tagPauseResp
	tagInstallReq // retired: the slot stays reserved, nothing encodes it
	tagMoveReq
	tagMoveResp
	tagEndReq
	tagEndResp
	tagMigrateReq
	tagMigrateResp
	tagMigrateBeginReq
	tagMigrateBeginResp
	tagInstallChunkReq
	tagInstallChunkResp
	tagInstallCommitReq
	tagInstallCommitResp
	tagLoadGossipReq
	tagLoadGossipResp
	tagPauseReq
	tagCommitReq
	tagCommitResp
	tagAbortReq
	tagAbortResp
	tagInventoryReq
	tagInventoryResp
	tagEdgeAddReq
	tagEdgeAddResp
	tagEdgeDelReq
	tagEdgeDelResp
	tagEdgesReq
	tagEdgesResp
	tagFixReq
	tagFixResp
	tagPingReq
	tagPingResp
	tagRemoteError
)

// body is a message the codec can encode.
type body interface{ appendTo(b []byte) []byte }

// decoder is implemented by a pointer to every body type.
type decoder interface{ decodeFrom(r *reader) }

// --- Encoding primitives ---

// grow ensures dst has room for n more bytes, reallocating at most
// once (append's geometric growth would copy the prefix repeatedly
// while a large body trickles in). The replacement buffer comes from
// the frame pool, so a bulk body outgrowing the small frame the rpc
// layer starts from lands in a recyclable buffer — whoever Puts the
// final frame returns the big allocation to the pool. The outgrown
// buffer is left to the garbage collector: dst stays the caller's
// under the append contract, so grow must never recycle it.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := framebuf.Get(len(dst) + n)[:len(dst)]
	copy(out, dst)
	return out
}

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendStr(b []byte, s string) []byte { return append(appendUvarint(b, uint64(len(s))), s...) }

func appendByteSlice(b, p []byte) []byte { return append(appendUvarint(b, uint64(len(p))), p...) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendOID(b []byte, id core.OID) []byte {
	return appendUvarint(appendStr(b, string(id.Origin)), id.Seq)
}

// appendList encodes a list as a uvarint count followed by each
// element; readList is its inverse.
func appendList[T any](b []byte, xs []T, enc func([]byte, T) []byte) []byte {
	b = appendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = enc(b, x)
	}
	return b
}

func appendEdge(b []byte, e EdgeRec) []byte {
	return appendUvarint(appendOID(b, e.Other), uint64(e.Alliance))
}

func appendAffinity(b []byte, o AffinityObs) []byte {
	b = appendOID(b, o.Obj)
	b = appendStr(b, string(o.From))
	return appendVarint(b, o.Count)
}

func appendClosure(b []byte, cl ClosureLoc) []byte {
	b = appendOID(b, cl.Anchor)
	b = appendUvarint(b, cl.Gen)
	return appendList(b, cl.Members, appendOID)
}

func appendUnit(b []byte, u InventoryUnit) []byte {
	b = appendOID(b, u.Anchor)
	b = appendVarint(b, u.Bytes)
	return appendVarint(b, u.Pressure)
}

// appendNodeLoad encodes one load sample (~8 varints plus the node
// name; loadSize is its grow hint).
func appendNodeLoad(b []byte, l *NodeLoad) []byte {
	b = appendStr(b, string(l.Node))
	b = appendVarint(b, l.Objects)
	b = appendVarint(b, l.Bytes)
	b = appendVarint(b, l.RateMilli)
	b = appendVarint(b, l.Capacity)
	b = appendVarint(b, l.CapBytes)
	b = appendUvarint(b, l.Seq)
	return appendUvarint(b, uint64(l.Health))
}

// appendOptLoad encodes a presence-flagged load sample.
func appendOptLoad(b []byte, l *NodeLoad) []byte {
	b = appendBool(b, l != nil)
	if l != nil {
		b = appendNodeLoad(b, l)
	}
	return b
}

// loadSize estimates the encoded size of a load sample.
func loadSize(l *NodeLoad) int {
	if l == nil {
		return 1
	}
	return 59 + len(l.Node)
}

// appendSnapshot encodes a snapshot without a tag: the layout shared by
// the Snapshot body and every snapshot list.
func appendSnapshot(b []byte, s Snapshot) []byte {
	b = appendOID(b, s.ID)
	b = appendStr(b, s.Type)
	b = appendByteSlice(b, s.State)
	b = appendBool(b, s.Pol.Fixed)
	b = appendBool(b, s.Pol.Lock.Held)
	b = appendStr(b, string(s.Pol.Lock.Owner))
	b = appendUvarint(b, uint64(s.Pol.Lock.Block))
	// OpenMoves in sorted key order: wire images stay deterministic.
	b = appendUvarint(b, uint64(len(s.Pol.OpenMoves)))
	if len(s.Pol.OpenMoves) > 0 {
		keys := make([]core.NodeID, 0, len(s.Pol.OpenMoves))
		for k := range s.Pol.OpenMoves {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			b = appendStr(b, string(k))
			b = appendVarint(b, int64(s.Pol.OpenMoves[k]))
		}
	}
	b = appendList(b, s.Edges, appendEdge)
	return appendUvarint(b, s.Gen)
}

// snapshotsSize estimates the encoded size of a snapshot batch (a grow
// hint, not a bound).
func snapshotsSize(snaps []Snapshot) int {
	n := 0
	for i := range snaps {
		n += SnapshotSize(&snaps[i])
	}
	return n
}

// oidsSize estimates the encoded size of an OID list, origin strings
// included — a flat per-entry constant would undershoot for realistic
// node-ID lengths and force a second, non-pooled reallocation
// mid-encode.
func oidsSize(ids []core.OID) int {
	n := 10
	for i := range ids {
		n += 12 + len(ids[i].Origin)
	}
	return n
}

// --- Decoding primitives ---

// reader is a cursor over one encoded body. The first error sticks:
// later reads return zero values, and Unmarshal reports it once at
// the end.
type reader struct {
	data []byte
	pos  int
	err  error
}

// readers recycles decode cursors (see Unmarshal). A *reader handed
// to decodeFrom through an interface escapes to the heap; pooling keeps
// that from costing an allocation per message.
var readers = sync.Pool{New: func() interface{} { return new(reader) }}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) truncated() { r.fail("truncated body at offset %d", r.pos) }

// next reads one raw byte.
func (r *reader) next() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.truncated()
		return 0
	}
	c := r.data[r.pos]
	r.pos++
	return c
}

// expect consumes the body's tag, refusing a body of another type. It
// returns r, so a decoder reads its first field off the call.
func (r *reader) expect(tag byte) *reader {
	if got := r.next(); got != tag {
		r.fail("body carries tag %d", got)
	}
	return r
}

// bool reads exactly one byte, 0 or 1.
func (r *reader) bool() bool {
	c := r.next()
	if c > 1 {
		r.fail("bool byte %#x at offset %d", c, r.pos-1)
	}
	return c == 1
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.pos:])
	if r.err != nil || n <= 0 {
		r.truncated()
		return 0
	}
	r.pos += n
	return v
}

// varint undoes the zig-zag mapping of appendVarint.
func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a length. Every counted element or byte takes at least
// one byte, so a count beyond the bytes left is corrupt — the bound
// that keeps a forged length from allocating a huge list.
func (r *reader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.data)-r.pos) {
		r.truncated()
		return 0
	}
	return int(n)
}

// raw reads a length-prefixed byte string. The result aliases the
// frame; str and byteSlice copy it out.
func (r *reader) raw() []byte {
	n := r.count()
	p := r.data[r.pos : r.pos+n]
	r.pos += n
	return p
}

func (r *reader) str() string { return string(r.raw()) }

// byteSlice copies the field out (wire bodies may alias reused
// transport frames) and maps the empty slice to nil.
func (r *reader) byteSlice() []byte {
	p := r.raw()
	if len(p) == 0 {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// readList decodes what appendList encodes; an empty list decodes as
// nil.
func readList[T any](r *reader, read func(*reader) T) []T {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = read(r)
	}
	return out
}

// The element readers below build composite literals; Go evaluates the
// calls in them left to right, which is the order fields are encoded.

func (r *reader) oid() core.OID { return core.OID{Origin: core.NodeID(r.str()), Seq: r.uvarint()} }

func (r *reader) edge() EdgeRec {
	return EdgeRec{Other: r.oid(), Alliance: core.AllianceID(r.uvarint())}
}

func (r *reader) affinity() AffinityObs {
	return AffinityObs{Obj: r.oid(), From: core.NodeID(r.str()), Count: r.varint()}
}

func (r *reader) closure() ClosureLoc {
	return ClosureLoc{Anchor: r.oid(), Gen: r.uvarint(), Members: readList(r, (*reader).oid)}
}

func (r *reader) unit() InventoryUnit {
	return InventoryUnit{Anchor: r.oid(), Bytes: r.varint(), Pressure: r.varint()}
}

func (r *reader) nodeLoad() (l NodeLoad) {
	l.Node = core.NodeID(r.str())
	l.Objects = r.varint()
	l.Bytes = r.varint()
	l.RateMilli = r.varint()
	l.Capacity = r.varint()
	l.CapBytes = r.varint()
	l.Seq = r.uvarint()
	if h := r.uvarint(); h <= math.MaxUint8 {
		l.Health = uint8(h)
	} else {
		r.fail("health %d out of range", h)
	}
	return l
}

// optNodeLoad decodes a presence-flagged load sample (nil when absent).
func (r *reader) optNodeLoad() *NodeLoad {
	if !r.bool() {
		return nil
	}
	l := r.nodeLoad()
	return &l
}

func (r *reader) snapshot() (s Snapshot) {
	s.ID = r.oid()
	s.Type = r.str()
	s.State = r.byteSlice()
	s.Pol.Fixed = r.bool()
	s.Pol.Lock.Held = r.bool()
	s.Pol.Lock.Owner = core.NodeID(r.str())
	s.Pol.Lock.Block = core.BlockID(r.uvarint())
	if n := r.count(); n > 0 {
		s.Pol.OpenMoves = make(map[core.NodeID]int, n)
		for i := 0; i < n; i++ {
			k := core.NodeID(r.str())
			s.Pol.OpenMoves[k] = int(r.varint())
		}
	}
	s.Edges = readList(r, (*reader).edge)
	s.Gen = r.uvarint()
	return s
}

// --- Bodies, in tag order ---

func (m InvokeReq) appendTo(b []byte) []byte {
	b = append(grow(b, 32+len(m.Obj.Origin)+len(m.Method)+len(m.Arg)+len(m.From)), tagInvokeReq)
	b = appendOID(b, m.Obj)
	b = appendStr(b, m.Method)
	b = appendByteSlice(b, m.Arg)
	return appendStr(b, string(m.From))
}

func (m *InvokeReq) decodeFrom(r *reader) {
	m.Obj = r.expect(tagInvokeReq).oid()
	m.Method = r.str()
	m.Arg = r.byteSlice()
	m.From = core.NodeID(r.str())
}

func (m InvokeResp) appendTo(b []byte) []byte {
	b = append(grow(b, 16+len(m.Result)+len(m.At)), tagInvokeResp)
	b = appendByteSlice(b, m.Result)
	return appendStr(b, string(m.At))
}

func (m *InvokeResp) decodeFrom(r *reader) {
	m.Result = r.expect(tagInvokeResp).byteSlice()
	m.At = core.NodeID(r.str())
}

func (m LocateReq) appendTo(b []byte) []byte { return appendOID(append(b, tagLocateReq), m.Obj) }
func (m *LocateReq) decodeFrom(r *reader)    { m.Obj = r.expect(tagLocateReq).oid() }

func (m LocateResp) appendTo(b []byte) []byte {
	return appendStr(append(b, tagLocateResp), string(m.At))
}

func (m *LocateResp) decodeFrom(r *reader) { m.At = core.NodeID(r.expect(tagLocateResp).str()) }

func (m HomeUpdate) appendTo(b []byte) []byte {
	hint := 32 + oidsSize(m.Objs) + len(m.At) + loadSize(m.Load) + 10*len(m.Gens)
	for _, o := range m.Aff {
		hint += 24 + len(o.Obj.Origin) + len(o.From)
	}
	for _, cl := range m.Closures {
		hint += 24 + len(cl.Anchor.Origin) + oidsSize(cl.Members)
	}
	b = append(grow(b, hint), tagHomeUpdate)
	b = appendList(b, m.Objs, appendOID)
	b = appendStr(b, string(m.At))
	b = appendList(b, m.Aff, appendAffinity)
	b = appendOptLoad(b, m.Load)
	b = appendList(b, m.Gens, appendUvarint)
	b = appendList(b, m.Closures, appendClosure)
	return appendUvarint(b, m.Trace)
}

func (m *HomeUpdate) decodeFrom(r *reader) {
	m.Objs = readList(r.expect(tagHomeUpdate), (*reader).oid)
	m.At = core.NodeID(r.str())
	m.Aff = readList(r, (*reader).affinity)
	m.Load = r.optNodeLoad()
	m.Gens = readList(r, (*reader).uvarint)
	m.Closures = readList(r, (*reader).closure)
	m.Trace = r.uvarint()
}

func (m HomeUpdateResp) appendTo(b []byte) []byte {
	return appendOptLoad(append(grow(b, 2+loadSize(m.Load)), tagHomeUpdateResp), m.Load)
}

func (m *HomeUpdateResp) decodeFrom(r *reader) { m.Load = r.expect(tagHomeUpdateResp).optNodeLoad() }

func (s Snapshot) appendTo(b []byte) []byte {
	return appendSnapshot(append(grow(b, 1+SnapshotSize(&s)), tagSnapshot), s)
}

func (s *Snapshot) decodeFrom(r *reader) { *s = r.expect(tagSnapshot).snapshot() }

func (m PauseResp) appendTo(b []byte) []byte {
	b = append(grow(b, 16+snapshotsSize(m.Snapshots)+oidsSize(m.Pending)), tagPauseResp)
	b = appendList(b, m.Snapshots, appendSnapshot)
	return appendList(b, m.Pending, appendOID)
}

func (m *PauseResp) decodeFrom(r *reader) {
	m.Snapshots = readList(r.expect(tagPauseResp), (*reader).snapshot)
	m.Pending = readList(r, (*reader).oid)
}

func (m MoveReq) appendTo(b []byte) []byte {
	b = appendOID(append(b, tagMoveReq), m.Obj)
	b = appendStr(b, string(m.From))
	b = appendUvarint(b, uint64(m.Block))
	return appendUvarint(b, uint64(m.Alliance))
}

func (m *MoveReq) decodeFrom(r *reader) {
	m.Obj = r.expect(tagMoveReq).oid()
	m.From = core.NodeID(r.str())
	m.Block = core.BlockID(r.uvarint())
	m.Alliance = core.AllianceID(r.uvarint())
}

func (m MoveResp) appendTo(b []byte) []byte {
	b = appendVarint(append(b, tagMoveResp), int64(m.Outcome))
	b = appendVarint(b, int64(m.Reason))
	b = appendStr(b, string(m.At))
	return appendList(b, m.Moved, appendOID)
}

func (m *MoveResp) decodeFrom(r *reader) {
	m.Outcome = MoveOutcome(r.expect(tagMoveResp).varint())
	m.Reason = core.DenyReason(r.varint())
	m.At = core.NodeID(r.str())
	m.Moved = readList(r, (*reader).oid)
}

func (m EndReq) appendTo(b []byte) []byte {
	b = appendOID(append(b, tagEndReq), m.Obj)
	b = appendStr(b, string(m.From))
	b = appendUvarint(b, uint64(m.Block))
	b = appendUvarint(b, uint64(m.Alliance))
	return appendList(b, m.Members, appendOID)
}

func (m *EndReq) decodeFrom(r *reader) {
	m.Obj = r.expect(tagEndReq).oid()
	m.From = core.NodeID(r.str())
	m.Block = core.BlockID(r.uvarint())
	m.Alliance = core.AllianceID(r.uvarint())
	m.Members = readList(r, (*reader).oid)
}

func (m EndResp) appendTo(b []byte) []byte {
	b = appendBool(append(b, tagEndResp), m.Unlocked)
	b = appendBool(b, m.Migrated)
	return appendStr(b, string(m.At))
}

func (m *EndResp) decodeFrom(r *reader) {
	m.Unlocked = r.expect(tagEndResp).bool()
	m.Migrated = r.bool()
	m.At = core.NodeID(r.str())
}

func (m MigrateReq) appendTo(b []byte) []byte {
	b = appendOID(append(b, tagMigrateReq), m.Obj)
	b = appendStr(b, string(m.Target))
	b = appendUvarint(b, uint64(m.Alliance))
	return appendBool(b, m.Fix)
}

func (m *MigrateReq) decodeFrom(r *reader) {
	m.Obj = r.expect(tagMigrateReq).oid()
	m.Target = core.NodeID(r.str())
	m.Alliance = core.AllianceID(r.uvarint())
	m.Fix = r.bool()
}

func (m MigrateResp) appendTo(b []byte) []byte {
	b = appendStr(append(b, tagMigrateResp), string(m.At))
	return appendList(b, m.Moved, appendOID)
}

func (m *MigrateResp) decodeFrom(r *reader) {
	m.At = core.NodeID(r.expect(tagMigrateResp).str())
	m.Moved = readList(r, (*reader).oid)
}

func (m MigrateBeginReq) appendTo(b []byte) []byte {
	b = append(grow(b, 56+len(m.From)+oidsSize(m.Objs)+snapshotsSize(m.Snapshots)), tagMigrateBeginReq)
	b = appendUvarint(b, m.Token)
	b = appendStr(b, string(m.From))
	b = appendList(b, m.Objs, appendOID)
	b = appendVarint(b, m.Bytes)
	b = appendUvarint(b, m.Trace)
	b = appendList(b, m.Snapshots, appendSnapshot)
	return appendBool(b, m.Commit)
}

func (m *MigrateBeginReq) decodeFrom(r *reader) {
	m.Token = r.expect(tagMigrateBeginReq).uvarint()
	m.From = core.NodeID(r.str())
	m.Objs = readList(r, (*reader).oid)
	m.Bytes = r.varint()
	m.Trace = r.uvarint()
	m.Snapshots = readList(r, (*reader).snapshot)
	m.Commit = r.bool()
}

func (m MigrateBeginResp) appendTo(b []byte) []byte {
	b = appendBool(append(grow(b, 12), tagMigrateBeginResp), m.Reserved)
	return appendVarint(b, m.ReservedBytes)
}

func (m *MigrateBeginResp) decodeFrom(r *reader) {
	m.Reserved = r.expect(tagMigrateBeginResp).bool()
	m.ReservedBytes = r.varint()
}

func (m InstallChunkReq) appendTo(b []byte) []byte {
	b = append(grow(b, 42+len(m.From)+snapshotsSize(m.Snapshots)), tagInstallChunkReq)
	b = appendUvarint(b, m.Token)
	b = appendStr(b, string(m.From))
	b = appendUvarint(b, m.Seq)
	b = appendList(b, m.Snapshots, appendSnapshot)
	return appendUvarint(b, m.Trace)
}

func (m *InstallChunkReq) decodeFrom(r *reader) {
	m.Token = r.expect(tagInstallChunkReq).uvarint()
	m.From = core.NodeID(r.str())
	m.Seq = r.uvarint()
	m.Snapshots = readList(r, (*reader).snapshot)
	m.Trace = r.uvarint()
}

func (m InstallChunkResp) appendTo(b []byte) []byte {
	return appendVarint(append(b, tagInstallChunkResp), int64(m.Staged))
}

func (m *InstallChunkResp) decodeFrom(r *reader) {
	m.Staged = int(r.expect(tagInstallChunkResp).varint())
}

func (m InstallCommitReq) appendTo(b []byte) []byte {
	b = appendUvarint(append(b, tagInstallCommitReq), m.Token)
	b = appendStr(b, string(m.From))
	return appendUvarint(b, m.Trace)
}

func (m *InstallCommitReq) decodeFrom(r *reader) {
	m.Token = r.expect(tagInstallCommitReq).uvarint()
	m.From = core.NodeID(r.str())
	m.Trace = r.uvarint()
}

func (m InstallCommitResp) appendTo(b []byte) []byte {
	return appendVarint(append(b, tagInstallCommitResp), int64(m.Installed))
}

func (m *InstallCommitResp) decodeFrom(r *reader) {
	m.Installed = int(r.expect(tagInstallCommitResp).varint())
}

func (m LoadGossipReq) appendTo(b []byte) []byte {
	return appendNodeLoad(append(grow(b, 1+loadSize(&m.Load)), tagLoadGossipReq), &m.Load)
}

func (m *LoadGossipReq) decodeFrom(r *reader) { m.Load = r.expect(tagLoadGossipReq).nodeLoad() }

func (m LoadGossipResp) appendTo(b []byte) []byte {
	return appendNodeLoad(append(grow(b, 1+loadSize(&m.Load)), tagLoadGossipResp), &m.Load)
}

func (m *LoadGossipResp) decodeFrom(r *reader) { m.Load = r.expect(tagLoadGossipResp).nodeLoad() }

func (m PauseReq) appendTo(b []byte) []byte {
	b = append(grow(b, 48+oidsSize(m.Objs)+len(m.From)+len(m.Target)), tagPauseReq)
	b = appendList(b, m.Objs, appendOID)
	b = appendUvarint(b, m.Token)
	b = appendVarint(b, m.MaxBytes)
	b = appendVarint(b, int64(m.Lease))
	b = appendStr(b, string(m.From))
	b = appendStr(b, string(m.Target))
	return appendUvarint(b, m.Trace)
}

func (m *PauseReq) decodeFrom(r *reader) {
	m.Objs = readList(r.expect(tagPauseReq), (*reader).oid)
	m.Token = r.uvarint()
	m.MaxBytes = r.varint()
	m.Lease = time.Duration(r.varint())
	m.From = core.NodeID(r.str())
	m.Target = core.NodeID(r.str())
	m.Trace = r.uvarint()
}

func (m CommitReq) appendTo(b []byte) []byte {
	b = append(grow(b, 48+oidsSize(m.Objs)+10*len(m.Gens)+len(m.NewHome)+len(m.From)), tagCommitReq)
	b = appendList(b, m.Objs, appendOID)
	b = appendStr(b, string(m.NewHome))
	b = appendUvarint(b, m.Token)
	b = appendStr(b, string(m.From))
	b = appendList(b, m.Gens, appendUvarint)
	b = appendOID(b, m.Anchor)
	return appendUvarint(b, m.Trace)
}

func (m *CommitReq) decodeFrom(r *reader) {
	m.Objs = readList(r.expect(tagCommitReq), (*reader).oid)
	m.NewHome = core.NodeID(r.str())
	m.Token = r.uvarint()
	m.From = core.NodeID(r.str())
	m.Gens = readList(r, (*reader).uvarint)
	m.Anchor = r.oid()
	m.Trace = r.uvarint()
}

func (CommitResp) appendTo(b []byte) []byte { return append(b, tagCommitResp) }
func (*CommitResp) decodeFrom(r *reader)    { r.expect(tagCommitResp) }

func (m AbortReq) appendTo(b []byte) []byte {
	b = append(grow(b, 24+oidsSize(m.Objs)+len(m.From)), tagAbortReq)
	b = appendList(b, m.Objs, appendOID)
	b = appendUvarint(b, m.Token)
	return appendStr(b, string(m.From))
}

func (m *AbortReq) decodeFrom(r *reader) {
	m.Objs = readList(r.expect(tagAbortReq), (*reader).oid)
	m.Token = r.uvarint()
	m.From = core.NodeID(r.str())
}

func (AbortResp) appendTo(b []byte) []byte { return append(b, tagAbortResp) }
func (*AbortResp) decodeFrom(r *reader)    { r.expect(tagAbortResp) }

func (m InventoryReq) appendTo(b []byte) []byte {
	return appendVarint(append(b, tagInventoryReq), m.MaxUnits)
}

func (m *InventoryReq) decodeFrom(r *reader) { m.MaxUnits = r.expect(tagInventoryReq).varint() }

func (m InventoryResp) appendTo(b []byte) []byte {
	b = append(grow(b, 1+loadSize(&m.Load)+32*len(m.Units)), tagInventoryResp)
	b = appendList(b, m.Units, appendUnit)
	return appendNodeLoad(b, &m.Load)
}

func (m *InventoryResp) decodeFrom(r *reader) {
	m.Units = readList(r.expect(tagInventoryResp), (*reader).unit)
	m.Load = r.nodeLoad()
}

func (m EdgeAddReq) appendTo(b []byte) []byte {
	b = appendOID(append(b, tagEdgeAddReq), m.Obj)
	b = appendOID(b, m.Other)
	b = appendUvarint(b, uint64(m.Alliance))
	return appendVarint(b, int64(m.Mode))
}

func (m *EdgeAddReq) decodeFrom(r *reader) {
	m.Obj = r.expect(tagEdgeAddReq).oid()
	m.Other = r.oid()
	m.Alliance = core.AllianceID(r.uvarint())
	m.Mode = core.AttachMode(r.varint())
}

func (EdgeAddResp) appendTo(b []byte) []byte { return append(b, tagEdgeAddResp) }
func (*EdgeAddResp) decodeFrom(r *reader)    { r.expect(tagEdgeAddResp) }

func (m EdgeDelReq) appendTo(b []byte) []byte {
	b = appendOID(append(b, tagEdgeDelReq), m.Obj)
	b = appendOID(b, m.Other)
	return appendUvarint(b, uint64(m.Alliance))
}

func (m *EdgeDelReq) decodeFrom(r *reader) {
	m.Obj = r.expect(tagEdgeDelReq).oid()
	m.Other = r.oid()
	m.Alliance = core.AllianceID(r.uvarint())
}

func (m EdgeDelResp) appendTo(b []byte) []byte {
	return appendBool(append(b, tagEdgeDelResp), m.Existed)
}

func (m *EdgeDelResp) decodeFrom(r *reader) { m.Existed = r.expect(tagEdgeDelResp).bool() }

func (m EdgesReq) appendTo(b []byte) []byte { return appendOID(append(b, tagEdgesReq), m.Obj) }
func (m *EdgesReq) decodeFrom(r *reader)    { m.Obj = r.expect(tagEdgesReq).oid() }

func (m EdgesResp) appendTo(b []byte) []byte {
	return appendList(append(b, tagEdgesResp), m.Edges, appendEdge)
}

func (m *EdgesResp) decodeFrom(r *reader) { m.Edges = readList(r.expect(tagEdgesResp), (*reader).edge) }

func (m FixReq) appendTo(b []byte) []byte {
	b = appendOID(append(b, tagFixReq), m.Obj)
	b = appendBool(b, m.Fix)
	return appendBool(b, m.Query)
}

func (m *FixReq) decodeFrom(r *reader) {
	m.Obj = r.expect(tagFixReq).oid()
	m.Fix = r.bool()
	m.Query = r.bool()
}

func (m FixResp) appendTo(b []byte) []byte { return appendBool(append(b, tagFixResp), m.Fixed) }
func (m *FixResp) decodeFrom(r *reader)    { m.Fixed = r.expect(tagFixResp).bool() }

func (m PingReq) appendTo(b []byte) []byte { return appendStr(append(b, tagPingReq), m.Payload) }
func (m *PingReq) decodeFrom(r *reader)    { m.Payload = r.expect(tagPingReq).str() }

func (m PingResp) appendTo(b []byte) []byte { return appendStr(append(b, tagPingResp), m.Payload) }
func (m *PingResp) decodeFrom(r *reader)    { m.Payload = r.expect(tagPingResp).str() }

func (e RemoteError) appendTo(b []byte) []byte {
	b = appendVarint(append(grow(b, 24+len(e.Msg)+len(e.To)), tagRemoteError), int64(e.Code))
	b = appendStr(b, e.Msg)
	return appendStr(b, string(e.To))
}

func (e *RemoteError) decodeFrom(r *reader) {
	e.Code = ErrCode(r.expect(tagRemoteError).varint())
	e.Msg = r.str()
	e.To = core.NodeID(r.str())
}
