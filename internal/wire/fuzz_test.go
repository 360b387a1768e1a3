package wire

import (
	"reflect"
	"testing"
)

// bodyTypes is one zero value of every type Unmarshal decodes into.
var bodyTypes = []interface{}{
	new(InvokeReq), new(InvokeResp), new(MoveReq), new(MoveResp),
	new(EndReq), new(EndResp), new(MigrateReq), new(MigrateResp),
	new(LocateReq), new(LocateResp), new(Snapshot), new(PauseReq), new(PauseResp),
	new(MigrateBeginReq), new(MigrateBeginResp), new(InstallChunkReq), new(InstallChunkResp),
	new(InstallCommitReq), new(InstallCommitResp), new(CommitReq), new(CommitResp),
	new(AbortReq), new(AbortResp), new(HomeUpdate), new(HomeUpdateResp),
	new(LoadGossipReq), new(LoadGossipResp), new(InventoryReq), new(InventoryResp),
	new(EdgeAddReq), new(EdgeAddResp), new(EdgeDelReq), new(EdgeDelResp),
	new(EdgesReq), new(EdgesResp), new(FixReq), new(FixResp),
	new(PingReq), new(PingResp), new(RemoteError),
}

// FuzzUnmarshal: no byte string may panic Unmarshal into any body
// type, and whatever a decoder accepts must survive a re-encode
// unchanged. The seed corpus (every fastBodies specimen)
// runs under plain go test; go test -fuzz=FuzzUnmarshal explores
// further.
func FuzzUnmarshal(f *testing.F) {
	for _, b := range fastBodies() {
		data, err := Marshal(b)
		if err != nil {
			f.Fatalf("marshal %T: %v", b, err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{tagGob})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, zero := range bodyTypes {
			typ := reflect.TypeOf(zero).Elem()
			v := reflect.New(typ).Interface()
			if err := Unmarshal(data, v); err != nil {
				continue
			}
			again, err := Marshal(v)
			if err != nil {
				t.Fatalf("re-marshal decoded %T: %v", v, err)
			}
			out := reflect.New(typ).Interface()
			if err := Unmarshal(again, out); err != nil {
				t.Fatalf("re-unmarshal %T: %v", v, err)
			}
			if !reflect.DeepEqual(v, out) {
				t.Fatalf("round trip %T:\n in: %+v\nout: %+v", v, v, out)
			}
		}
	})
}
