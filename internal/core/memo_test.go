package core

import (
	"testing"

	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
)

func (m *decodeMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.res)
}

func (m *decodeMemo) has(key ids.ID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.res[key]
	return ok
}

// TestResourcesSeesRepublish: a memo hit is by raw-byte equality, not by
// version, so a republished record with different bytes is decoded afresh
// by the very next resources call — and an unchanged one is not stored
// twice.
func TestResourcesSeesRepublish(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		before, err := tb.atom.resources(tb.desktop.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		again, err := tb.atom.resources(tb.desktop.Addr())
		if err != nil || again != before {
			t.Errorf("unchanged record decoded differently: %+v vs %+v (%v)", again, before, err)
			return
		}
		if n := tb.home.memo.len(); n != 1 {
			t.Errorf("memo holds %d entries after two reads of one record, want 1", n)
		}

		// Fill 10 MB of the desktop's mandatory bin so the next sample
		// differs, and republish.
		sess, err := tb.desktop.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		if err := sess.CreateObject("filler.bin", "bin", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.StoreObject("filler.bin", nil, 10<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		if err := tb.desktop.Monitor().PublishOnce(); err != nil {
			t.Error(err)
			return
		}
		after, err := tb.atom.resources(tb.desktop.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		if after == before {
			t.Errorf("resources still returns the pre-republish record: %+v", after)
		}
		if after.MandatoryFree != before.MandatoryFree-10<<20 {
			t.Errorf("MandatoryFree = %d after a 10 MB store, was %d", after.MandatoryFree, before.MandatoryFree)
		}
	})
}

// TestCrashEvictsResourceMemo: the memo never outlives membership — a
// crashed (or departed) node's decoded record is dropped with it, and a
// lookup of a non-member does not put it back.
func TestCrashEvictsResourceMemo(t *testing.T) {
	tb := newTestbed(t, kv.Options{ReplicationFactor: 1})
	tb.run(func() {
		for _, n := range tb.home.Nodes() {
			if _, err := tb.atom.resources(n.Addr()); err != nil {
				t.Error(err)
				return
			}
		}
		if n := tb.home.memo.len(); n != 3 {
			t.Errorf("memo holds %d entries for 3 members, want 3", n)
		}
		key := tb.netbook.Monitor().Key()
		if err := tb.home.RemoveNode(tb.netbook.Addr(), false); err != nil {
			t.Error(err)
			return
		}
		if tb.home.memo.has(key) {
			t.Error("crashed node's record is still in the memo")
		}
		// The replicated record may well survive in kv; reading it must
		// not re-enter the memo.
		_, _ = tb.atom.resources(tb.netbook.Addr())
		if n := tb.home.memo.len(); n != 2 {
			t.Errorf("memo holds %d entries for 2 members, want 2", n)
		}
		if err := tb.home.RemoveNode(tb.desktop.Addr(), true); err != nil {
			t.Error(err)
			return
		}
		if n := tb.home.memo.len(); n != 1 {
			t.Errorf("memo holds %d entries for 1 member, want 1", n)
		}
	})
}
