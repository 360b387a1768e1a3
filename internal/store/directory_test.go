package store

import (
	"fmt"
	"testing"
	"time"

	"objmig/internal/core"
)

// TestClosureRecordSharing: a closure-level home update must cost one
// shared record (plus member references) instead of per-object home
// entries, resolve on Hint/Home, and refresh all members on one Learn.
func TestClosureRecordSharing(t *testing.T) {
	t.Parallel()
	s := New("n1")
	const members = 64
	anchor := core.OID{Origin: "n1", Seq: 1}
	ids := make([]core.OID, 0, members)
	for i := 0; i < members; i++ {
		ids = append(ids, core.OID{Origin: "n1", Seq: uint64(i + 1)})
	}
	s.HomeUpdateClosure(anchor, 1, ids, "n2")

	ls := s.LocStats()
	if ls.Home != 0 || ls.Closures != 1 || ls.ClosureRefs != members {
		t.Fatalf("LocStats = %+v, want 0 home / 1 closure / %d refs", ls, members)
	}
	// One shared record versus N per-object entries: ≥4× fewer for a
	// 64-member closure (here 1 entry vs 64).
	if got := ls.Entries(); got*4 > members {
		t.Fatalf("closure update cost %d entries for %d members", got, members)
	}
	for _, id := range ids {
		if hint := s.Hint(id); hint != "n2" {
			t.Fatalf("Hint(%s) = %s, want n2", id, hint)
		}
		if at, ok := s.Home(id); !ok || at != "n2" {
			t.Fatalf("Home(%s) = %s, %v", id, at, ok)
		}
	}
	// Learn is hearsay about one object: it detaches that member only,
	// leaving the shared record (and everyone else) untouched.
	s.Learn(ids[17], "n3")
	if hint := s.Hint(ids[17]); hint != "n3" {
		t.Fatalf("after Learn, Hint(%s) = %s, want n3", ids[17], hint)
	}
	if hint := s.Hint(ids[16]); hint != "n2" {
		t.Fatalf("Learn dragged a sibling: Hint(%s) = %s, want n2", ids[16], hint)
	}
	// A single closure-level update refreshes every member at once —
	// including the detached one (its entry carries the old generation).
	s.HomeUpdateClosure(anchor, 2, ids, "n3")
	for _, id := range ids {
		if hint := s.Hint(id); hint != "n3" {
			t.Fatalf("after closure update, Hint(%s) = %s, want n3", id, hint)
		}
	}
	if ls := s.LocStats(); ls.ClosureRefs != members || ls.Home != 0 {
		t.Fatalf("closure update did not recapture members: %+v", ls)
	}
}

// TestClosureGenOrdering: stale reports (older generations) must never
// roll a closure record or a fresher per-object entry backwards, in
// either direction.
func TestClosureGenOrdering(t *testing.T) {
	t.Parallel()
	s := New("n1")
	anchor := core.OID{Origin: "n1", Seq: 1}
	ids := []core.OID{{Origin: "n1", Seq: 1}, {Origin: "n1", Seq: 2}}

	s.HomeUpdateClosure(anchor, 3, ids, "n3")
	s.HomeUpdateClosure(anchor, 2, ids, "n2") // stale: must be ignored
	if hint := s.Hint(ids[0]); hint != "n3" {
		t.Fatalf("stale closure update won: hint = %s", hint)
	}

	// A fresher per-object report detaches the member from the record.
	s.HomeUpdate(ids[:1], []uint64{4}, "n4")
	if hint := s.Hint(ids[0]); hint != "n4" {
		t.Fatalf("fresh per-object update lost: hint = %s", hint)
	}
	if hint := s.Hint(ids[1]); hint != "n3" {
		t.Fatalf("unrelated member moved: hint = %s", hint)
	}
	// ... and a stale per-object report must not detach it.
	s.HomeUpdate(ids[1:], []uint64{1}, "n9")
	if hint := s.Hint(ids[1]); hint != "n3" {
		t.Fatalf("stale per-object update won: hint = %s", hint)
	}
	// A fresher closure update recaptures the individually-updated one.
	s.HomeUpdateClosure(anchor, 5, ids, "n5")
	for _, id := range ids {
		if hint := s.Hint(id); hint != "n5" {
			t.Fatalf("closure recapture failed: hint(%s) = %s", id, hint)
		}
	}
	if ls := s.LocStats(); ls.Home != 0 || ls.ClosureRefs != 2 {
		t.Fatalf("LocStats = %+v, want all members attached", ls)
	}
}

// TestOriginLearnKeepsHomeAuthoritative: hearsay at the origin must
// not overwrite its home index. A reply or redirect naming an earlier
// host can arrive after the departure and the closure's home update it
// predates; written into the home entry at the closure's generation,
// it stranded the object in a forwarding cycle that no later report
// could correct.
func TestOriginLearnKeepsHomeAuthoritative(t *testing.T) {
	t.Parallel()
	s := New("n0")
	g := core.OID{Origin: "n0", Seq: 1}
	s.Departed(g, "n1", 7)
	s.HomeUpdateClosure(g, 7, []core.OID{g}, "n1")
	s.Learn(g, "n2") // stale: the object left n2 before gen 7

	if at, ok := s.Home(g); !ok || at != "n1" {
		t.Fatalf("Home = %s, %v, want n1", at, ok)
	}
	if at, ok := s.Forward(g); !ok || at != "n1" {
		t.Fatalf("Forward = %s, %v, want n1", at, ok)
	}
	// The hearsay only steers this node's own next try ...
	if hint := s.Hint(g); hint != "n2" {
		t.Fatalf("Hint = %s, want the learnt n2", hint)
	}
	// ... until n2 redirects back here, which drops it.
	s.Learn(g, "n0")
	if hint := s.Hint(g); hint != "n1" {
		t.Fatalf("Hint after self redirect = %s, want n1", hint)
	}
	// An authoritative update also supersedes cached hearsay.
	s.Learn(g, "n2")
	s.HomeUpdate([]core.OID{g}, []uint64{8}, "n3")
	if hint := s.Hint(g); hint != "n3" {
		t.Fatalf("Hint after home update = %s, want n3", hint)
	}
}

// TestClosureShrinksWithoutDraggingStrays: the same anchor migrating
// again with a smaller member set must not drag the left-behind
// members along. The second report mints a fresh record; strays keep
// referencing the superseded one, whose location stays put. (This is
// the officeflow shape: {folder, report} travels to the editor, then
// {folder, memo} travels on to the archiver — report stays put.)
func TestClosureShrinksWithoutDraggingStrays(t *testing.T) {
	t.Parallel()
	s := New("n1")
	anchor := core.OID{Origin: "n1", Seq: 1}
	folder := core.OID{Origin: "n1", Seq: 1}
	report := core.OID{Origin: "n1", Seq: 2}
	memo := core.OID{Origin: "n1", Seq: 3}

	s.HomeUpdateClosure(anchor, 1, []core.OID{folder, report}, "n2")
	s.HomeUpdateClosure(anchor, 2, []core.OID{folder, memo}, "n3")

	if hint := s.Hint(folder); hint != "n3" {
		t.Fatalf("anchor did not follow its own migration: hint = %s", hint)
	}
	if hint := s.Hint(memo); hint != "n3" {
		t.Fatalf("travelling member lost: hint = %s", hint)
	}
	if hint := s.Hint(report); hint != "n2" {
		t.Fatalf("stray member was dragged along: Hint(report) = %s, want n2", hint)
	}
	if at, ok := s.Home(report); !ok || at != "n2" {
		t.Fatalf("Home(report) = %s, %v, want n2", at, ok)
	}
}

// TestConfirmDepartedRetiresState: once the origin acknowledged a home
// update, the old host drops the forwarding pointer, the member
// reference and the Gone stub.
func TestConfirmDepartedRetiresState(t *testing.T) {
	t.Parallel()
	s := New("n2") // foreign host for n1-origin objects
	id := core.OID{Origin: "n1", Seq: 7}
	rec := NewRecord(id, "t", &testState{})
	if err := s.Add(rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Pause(t.Context(), 1); err != nil {
		t.Fatal(err)
	}
	rec.Depart(1, "n3", func() { s.Departed(id, "n3", 1) })
	if _, ok := s.Get(id); !ok {
		t.Fatal("stub should persist until confirmed")
	}
	if _, ok := s.Forward(id); !ok {
		t.Fatal("forward should exist before confirm")
	}
	s.ConfirmDeparted([]core.OID{id}, "n3")
	if _, ok := s.Get(id); ok {
		t.Fatal("stub survived confirmation")
	}
	if _, ok := s.Forward(id); ok {
		t.Fatal("forward survived confirmation")
	}
	if ls := s.LocStats(); ls.Retired != 1 {
		t.Fatalf("Retired = %d, want 1", ls.Retired)
	}
	// Chasers still resolve: the origin fallback remains.
	if hint := s.Hint(id); hint != "n1" {
		t.Fatalf("hint after retirement = %s, want origin", hint)
	}
}

// TestCompactForwardsTTL: unconfirmed forwards (and their stubs) age
// out under the TTL; fresh ones survive.
func TestCompactForwardsTTL(t *testing.T) {
	t.Parallel()
	s := New("n2")
	old := core.OID{Origin: "n1", Seq: 1}
	fresh := core.OID{Origin: "n1", Seq: 2}
	for _, id := range []core.OID{old, fresh} {
		rec := NewRecord(id, "t", &testState{})
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
		if err := rec.Pause(t.Context(), 1); err != nil {
			t.Fatal(err)
		}
		rec.Depart(1, "n3", func() { s.Departed(id, "n3", 1) })
	}
	// Age the first entry artificially.
	sh := s.shardOf(old)
	sh.locMu.Lock()
	f := sh.forwards[old]
	f.stamp = time.Now().Add(-time.Hour)
	sh.forwards[old] = f
	sh.locMu.Unlock()

	s.SetForwardTTL(time.Minute)
	if removed := s.CompactForwards(); removed != 1 {
		t.Fatalf("CompactForwards removed %d, want 1", removed)
	}
	if _, ok := s.Forward(old); ok {
		t.Fatal("expired forward survived")
	}
	if _, ok := s.Get(old); ok {
		t.Fatal("expired stub survived")
	}
	if to, ok := s.Forward(fresh); !ok || to != "n3" {
		t.Fatal("fresh forward was reaped")
	}
	// Disabled TTL compacts nothing.
	s.SetForwardTTL(-1)
	if removed := s.CompactForwards(); removed != 0 {
		t.Fatalf("disabled TTL still removed %d", removed)
	}
}

// TestHintCacheCap: the foreign-hint cache must stay bounded no matter
// how many distinct foreign objects are learned.
func TestHintCacheCap(t *testing.T) {
	t.Parallel()
	s := New("n1")
	const cap = 256
	s.SetHintCacheCap(cap)
	for i := 0; i < cap*20; i++ {
		id := core.OID{Origin: "n9", Seq: uint64(i + 1)}
		s.Learn(id, core.NodeID(fmt.Sprintf("n%d", i%7+2)))
	}
	if ls := s.LocStats(); ls.Cache > cap {
		t.Fatalf("cache grew to %d entries, cap is %d", ls.Cache, cap)
	}
	// Re-learning an already-cached object must not evict.
	s.SetHintCacheCap(ShardCount) // one entry per shard
	id := core.OID{Origin: "n9", Seq: 1 << 40}
	s.Learn(id, "n2")
	s.Learn(id, "n3")
	if hint := s.Hint(id); hint != "n3" {
		t.Fatalf("re-learn lost the entry: hint = %s", hint)
	}
}

// TestDepartedClosureCoalesces: an old host collapsing a group
// departure holds one closure record instead of N forwards, members of
// any origin included, and retires it wholesale on confirmation.
func TestDepartedClosureCoalesces(t *testing.T) {
	t.Parallel()
	s := New("n2")
	anchor := core.OID{Origin: "n1", Seq: 1}
	ids := []core.OID{
		{Origin: "n1", Seq: 1},
		{Origin: "n1", Seq: 2},
		{Origin: "n3", Seq: 9}, // foreign member coalesces too
	}
	for _, id := range ids {
		s.Departed(id, "n4", 1) // per-object forwards first (commit order)
	}
	s.DepartedClosure(anchor, 1, ids, "n4")
	ls := s.LocStats()
	if ls.Forwards != 0 || ls.Closures != 1 || ls.ClosureRefs != len(ids) {
		t.Fatalf("LocStats = %+v, want coalesced closure", ls)
	}
	for _, id := range ids {
		if to, ok := s.Forward(id); !ok || to != "n4" {
			t.Fatalf("Forward(%s) = %s, %v", id, to, ok)
		}
	}
	s.ConfirmDeparted(ids, "n4")
	ls = s.LocStats()
	if ls.ClosureRefs != 0 {
		t.Fatalf("refs survived confirmation: %+v", ls)
	}
	s.CompactForwards() // reaps the zero-ref record (needs a TTL)
	if ls = s.LocStats(); ls.Closures != 0 {
		t.Fatalf("zero-ref closure not reaped: %+v", ls)
	}
}
