package objmig

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"objmig/internal/core"
)

// codecRecord is a Record-like argument: a name and a byte body.
type codecRecord struct {
	Name string
	Data []byte
}

// codecMixed exercises every covered kind the other types leave out.
type codecMixed struct {
	On    bool
	Small int8
	U16   uint16
	F32   float32
	F64   float64
	Arr   [3]uint32
	Recs  []codecRecord
	Index map[int64][]string
	hide  int // unexported: skipped
}

// encodeOf encodes v with its type's cached codec.
func encodeOf[T any](t testing.TB, v T) []byte {
	t.Helper()
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		t.Fatal(err)
	}
	return c.enc(nil, reflect.ValueOf(v))
}

// decodeAs decodes data as a T.
func decodeAs[T any](data []byte) (T, error) {
	var v T
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		return v, err
	}
	err = c.decode(data, reflect.ValueOf(&v).Elem())
	return v, err
}

func roundTrip[T any](t *testing.T, v T) {
	t.Helper()
	got, err := decodeAs[T](encodeOf(t, v))
	if err != nil {
		t.Fatalf("%T: %v", v, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("%T round trip: got %+v, want %+v", v, got, v)
	}
}

func TestTypedCodecRoundTrip(t *testing.T) {
	t.Parallel()
	roundTrip(t, 0)
	roundTrip(t, -1)
	roundTrip(t, math.MinInt64)
	roundTrip(t, uint64(math.MaxUint64))
	roundTrip(t, "")
	roundTrip(t, "héllo")
	roundTrip(t, struct{}{})
	roundTrip(t, []string{"a", "", "c"})
	roundTrip(t, []byte{0, 1, 255})
	roundTrip(t, map[string]int{"x": 1, "y": -2})
	roundTrip(t, NodeID("n3"))
	roundTrip(t, 3*time.Second)
	roundTrip(t, counterState{Value: -7, Tag: "t", Peer: Ref{OID: core.OID{Origin: "n", Seq: 9}}})
	roundTrip(t, codecRecord{Name: "r", Data: []byte("body")})
	roundTrip(t, codecMixed{
		On: true, Small: -128, U16: 65535, F32: 1.5, F64: math.Inf(-1),
		Arr:   [3]uint32{1, 1 << 31, 3},
		Recs:  []codecRecord{{Name: "a"}, {Data: []byte{7}}},
		Index: map[int64][]string{-1: {"x"}, 2: nil},
	})
	// Unexported fields are not carried, and empty slices and maps
	// decode as nil.
	got, err := decodeAs[codecMixed](encodeOf(t, codecMixed{hide: 5, Recs: []codecRecord{}, Index: map[int64][]string{}}))
	if err != nil || got.hide != 0 || got.Recs != nil || got.Index != nil {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

// TestTypedCodecLayout pins the byte layout docs/wire-format.md gives.
func TestTypedCodecLayout(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		got  []byte
		want []byte
	}{
		{"int zig-zag", encodeOf(t, -2), []byte{3}},
		{"uint", encodeOf(t, uint(300)), []byte{0xac, 0x02}},
		{"bool", encodeOf(t, true), []byte{1}},
		{"float64 LE", encodeOf(t, 1.0), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
		{"string", encodeOf(t, "ab"), []byte{2, 'a', 'b'}},
		{"struct", encodeOf(t, codecRecord{Name: "a", Data: []byte{9}}), []byte{1, 'a', 1, 9}},
		{"array", encodeOf(t, [2]int8{1, -1}), []byte{2, 1}},
		{"slice", encodeOf(t, []int{5}), []byte{1, 10}},
		{"map", encodeOf(t, map[string]bool{"k": true}), []byte{1, 1, 'k', 1}},
		{"empty struct", encodeOf(t, struct{}{}), nil},
	} {
		if !bytes.Equal(tc.got, tc.want) {
			t.Errorf("%s: % x, want % x", tc.name, tc.got, tc.want)
		}
	}
}

func TestTypedCodecRejectsCorruption(t *testing.T) {
	t.Parallel()
	rec := encodeOf(t, codecRecord{Name: "name", Data: []byte("data")})
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"truncated struct", func() error { _, err := decodeAs[codecRecord](rec[:len(rec)-1]); return err }},
		{"truncated varint", func() error { _, err := decodeAs[int]([]byte{0x80}); return err }},
		{"truncated float", func() error { _, err := decodeAs[float64]([]byte{1, 2, 3}); return err }},
		{"empty input", func() error { _, err := decodeAs[counterState](nil); return err }},
		{"trailing bytes", func() error { _, err := decodeAs[codecRecord](append(rec, 0)); return err }},
		{"trailing after empty struct", func() error { _, err := decodeAs[struct{}]([]byte{0}); return err }},
		{"oversize string length", func() error { _, err := decodeAs[string](append(huge, 'x')); return err }},
		{"oversize byte length", func() error { _, err := decodeAs[[]byte](huge); return err }},
		{"oversize slice count", func() error { _, err := decodeAs[[]string](append(huge, 0, 0)); return err }},
		{"oversize map count", func() error { _, err := decodeAs[map[string]int](append(huge, 0, 0)); return err }},
		{"bool byte 2", func() error { _, err := decodeAs[bool]([]byte{2}); return err }},
		{"bool byte 2 in struct", func() error { _, err := decodeAs[codecMixed]([]byte{2}); return err }},
		{"int8 overflow", func() error { _, err := decodeAs[int8](encodeOf(t, 128)); return err }},
		{"uint16 overflow", func() error { _, err := decodeAs[uint16](encodeOf(t, uint64(1<<16))); return err }},
		{"varint over 64 bits", func() error {
			_, err := decodeAs[uint64](bytes.Repeat([]byte{0xff}, 11))
			return err
		}},
	} {
		if err := tc.decode(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestTypedCodecOversizeLengthDoesNotAllocate: a forged count is
// refused before anything is allocated for it.
func TestTypedCodecOversizeLengthDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  interface{}
	}{
		{"string", new(string)},
		{"bytes", new([]byte)},
		{"slice", new([]codecRecord)},
		{"map", new(map[string]string)},
	} {
		v := reflect.ValueOf(tc.dst).Elem()
		c, err := codecFor(v.Type())
		if err != nil {
			t.Fatal(err)
		}
		forged := append(binary.AppendUvarint(nil, 1<<30), 1, 2, 3)
		allocs := testing.AllocsPerRun(100, func() {
			if c.decode(forged, v) == nil {
				t.Fatalf("%s: forged length accepted", tc.name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: refusing a forged length allocated %.0f times", tc.name, allocs)
		}
	}
}

// Types the typed codec refuses, each at a known field path.
type (
	ifaceState struct {
		Name  string
		Inner struct{ R io.Reader }
	}
	treeState struct {
		Label string
		Kids  []treeState
	}
	ptrState     struct{ Next *int }
	timeState    struct{ At time.Time }
	zeroSetState struct{ Seen []struct{} }
)

func TestTypedCodecRefusesAtRegistration(t *testing.T) {
	t.Parallel()
	mustPanic := func(name, want string, register func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			msg, _ := r.(string)
			if r == nil || !strings.Contains(msg, want) {
				t.Errorf("%s: panic %v, want one naming %q", name, r, want)
			}
		}()
		register()
	}
	mustPanic("interface field", "objmig.ifaceState.Inner.R: interface type io.Reader", func() {
		NewType[ifaceState]("iface")
	})
	mustPanic("recursive type", "objmig.treeState.Kids[]: recursive type objmig.treeState", func() {
		NewType[treeState]("tree")
	})
	mustPanic("pointer field", "objmig.ptrState.Next: ptr type *int", func() {
		NewType[ptrState]("ptr")
	})
	mustPanic("no exported fields", "objmig.timeState.At: struct time.Time has no exported fields", func() {
		NewType[timeState]("time")
	})
	mustPanic("zero-width elements", "objmig.zeroSetState.Seen: elements of []struct {} encode to no bytes", func() {
		NewType[zeroSetState]("zero")
	})
	typ := NewType[counterState]("refuse")
	mustPanic("interface argument", "method refuse.M: argument: interface {}: interface type", func() {
		HandleFunc(typ, "M", func(c *Ctx, s *counterState, _ interface{}) (int, error) { return 0, nil })
	})
	mustPanic("recursive result", "method refuse.N: result: objmig.treeState.Kids[]: recursive type", func() {
		HandleFunc(typ, "N", func(c *Ctx, s *counterState, _ int) (treeState, error) { return treeState{}, nil })
	})
	if _, ok := typ.method("M"); ok {
		t.Fatal("a refused method was registered")
	}
}

func TestCallRefusesUncoveredTypes(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 1, Config{})
	ref := mustCreate(t, nodes[0])
	if _, err := Call[io.Reader, int](ctx, nodes[0], ref, "Add", nil); err == nil ||
		!strings.Contains(err.Error(), "interface type io.Reader") {
		t.Fatalf("interface argument: %v", err)
	}
	if _, err := Call[int, treeState](ctx, nodes[0], ref, "Add", 1); err == nil ||
		!strings.Contains(err.Error(), "recursive type") {
		t.Fatalf("recursive result: %v", err)
	}
	// The refusals came before the call: the counter is untouched.
	if v, err := Call[struct{}, int](ctx, nodes[0], ref, "Get", struct{}{}); err != nil || v != 0 {
		t.Fatalf("Get = %d, %v", v, err)
	}
}

// fuzzCases are the types FuzzTypedCodec decodes into, with a valid
// value of each as its corpus seed.
var fuzzCases = []struct {
	seed  func(t testing.TB) []byte
	check func(t *testing.T, data []byte)
}{
	{func(t testing.TB) []byte {
		return encodeOf(t, counterState{Value: 7, Tag: "x", Peer: Ref{OID: core.OID{Origin: "n", Seq: 3}}})
	}, checkRoundTrip[counterState]},
	{func(t testing.TB) []byte { return encodeOf(t, codecRecord{Name: "rec", Data: []byte{1, 2, 3}}) },
		checkRoundTrip[codecRecord]},
	{func(t testing.TB) []byte { return encodeOf(t, map[string]string{"k": "v", "": "e"}) },
		checkRoundTrip[map[string]string]},
	{func(t testing.TB) []byte { return encodeOf(t, []string{"a", "bc"}) }, checkRoundTrip[[]string]},
	{func(t testing.TB) []byte { return encodeOf(t, struct{}{}) }, checkRoundTrip[struct{}]},
	{func(t testing.TB) []byte {
		return encodeOf(t, codecMixed{On: true, Small: -3, F32: 2, Arr: [3]uint32{4}, Index: map[int64][]string{1: {"z"}}})
	}, checkRoundTrip[codecMixed]},
}

// checkRoundTrip decodes data as a T; whatever decodes must encode,
// decode again and come back equal. Floats make DeepEqual miss a NaN,
// so an identical re-encoding also counts as equal.
func checkRoundTrip[T any](t *testing.T, data []byte) {
	v, err := decodeAs[T](data)
	if err != nil {
		return
	}
	b := encodeOf(t, v)
	w, err := decodeAs[T](b)
	if err != nil {
		t.Fatalf("%T: re-decoding % x: %v", v, b, err)
	}
	if !reflect.DeepEqual(v, w) && !bytes.Equal(b, encodeOf(t, w)) {
		t.Fatalf("%T round trip: %+v became %+v", v, v, w)
	}
}

// FuzzTypedCodec: no input panics a typed decoder, and every value a
// decoder accepts round-trips.
func FuzzTypedCodec(f *testing.F) {
	for i, c := range fuzzCases {
		seed := c.seed(f)
		f.Add(uint8(i), seed)
		if len(seed) > 0 {
			f.Add(uint8(i), seed[:len(seed)-1])
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		fuzzCases[int(which)%len(fuzzCases)].check(t, data)
	})
}
