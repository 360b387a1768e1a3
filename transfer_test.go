package objmig

import (
	"context"
	"testing"
	"time"

	"objmig/internal/core"
	"objmig/internal/wire"
)

// TestSingleFrameMigration: a single-host group that fits one chunk
// reaches the target as exactly one MigrateBegin frame with Commit
// set — one chunk out, one chunk in, one session admitted, and no
// session left stored (so no TTL timer armed).
func TestSingleFrameMigration(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	nodes := testCluster(t, 2, Config{})
	ref := mustCreate(t, nodes[0])
	if _, err := Call[int, int](ctx, nodes[0], ref, "Add", 5); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Migrate(ctx, ref, "n1"); err != nil {
		t.Fatal(err)
	}
	if got := nodes[0].Stats().StreamChunksOut; got != 1 {
		t.Fatalf("coordinator sent %d chunks, want 1", got)
	}
	tgt := nodes[1].Stats()
	if tgt.StreamChunksIn != 1 || tgt.StreamSessionsOpened != 1 {
		t.Fatalf("target staged %d chunks in %d sessions, want 1 and 1", tgt.StreamChunksIn, tgt.StreamSessionsOpened)
	}
	if c := nodes[1].sessionCount(); c != 0 {
		t.Fatalf("target stores %d sessions after a committing begin, want 0", c)
	}
	if v, err := Call[int, int](ctx, nodes[0], ref, "Add", 1); err != nil || v != 6 {
		t.Fatalf("after migration: %d, %v", v, err)
	}
	// The retired install kind is refused like any unknown kind.
	if _, err := nodes[1].handle(ctx, wire.KInstall, []byte{1}, nil); !isCode(err, wire.CodeBadRequest) {
		t.Fatalf("KInstall frame answered %v, want CodeBadRequest", err)
	}
}

// TestCommittingBeginClaimsSnapshotBytes: a begin frame that carries
// snapshots claims at least their encoded size in the reservation
// ledger, however low the coordinator's estimate.
func TestCommittingBeginClaimsSnapshotBytes(t *testing.T) {
	t.Parallel()
	ctx := ctxShort(t)
	cl := NewLocalCluster()
	mk := func(cfg Config) *Node {
		cfg.Cluster = cl
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		if err := n.RegisterType(newCounterType()); err != nil {
			t.Fatal(err)
		}
		return n
	}
	src := mk(Config{ID: "src"})
	tgt := mk(Config{ID: "tgt", Capacity: 4})
	if err := tgt.EnablePlacement(PlacementConfig{Heartbeat: -1, OriginPass: -1}); err != nil {
		t.Fatal(err)
	}
	oid := mustCreate(t, src).OID
	paused, err := src.handlePause(ctx, &wire.PauseReq{Objs: []core.OID{oid}, Token: 5, From: "coord"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tgt.handleMigrateBegin(&wire.MigrateBeginReq{Token: 5, From: "coord", Objs: []core.OID{oid},
		Bytes: 1, Snapshots: paused.Snapshots, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(wire.SnapshotSize(&paused.Snapshots[0])); !resp.Reserved || resp.ReservedBytes < want {
		t.Fatalf("claim %+v, want at least %d bytes", resp, want)
	}
	if res := tgt.resv.Reserved(); res.Objects != 0 || res.Bytes != 0 {
		t.Fatalf("claim outlived the install: %+v", res)
	}
	if _, ok := tgt.hostedRecord(oid); !ok {
		t.Fatal("committing begin did not install the object")
	}
}

// TestPauseAfterAbortRollsBack: a pause that lands behind its
// migration's abort is refused and leaves nothing paused, so the
// object serves at once instead of waiting out the pause lease.
func TestPauseAfterAbortRollsBack(t *testing.T) {
	t.Parallel()
	nodes := testCluster(t, 1, Config{})
	n := nodes[0]
	ref := mustCreate(t, n)
	n.abortLocal(&wire.AbortReq{Token: 9, From: "ghost"})
	_, err := n.handlePause(context.Background(), &wire.PauseReq{
		Objs: []core.OID{ref.OID}, Token: 9, From: "ghost", Target: "n9", Lease: time.Minute,
	})
	if err == nil {
		t.Fatal("pause behind the abort fence succeeded")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := Call[int, int](ctx, n, ref, "Add", 1); err != nil {
		t.Fatalf("object still paused after the refused pause: %v", err)
	}
}
