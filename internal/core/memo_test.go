package core

import (
	"errors"
	"slices"
	"testing"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/services"
)

func (m *decodeMemo) len() int {
	return len(m.entries)
}

func (m *decodeMemo) has(key ids.ID) bool {
	_, ok := m.entries[key]
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

// TestDecidedSeesNewHostList: a registration is decoded once per version,
// so a deploy, an undeploy or a DeployCloudService between two decided
// FetchProcess calls reaches the second one — it decides over the new
// host list, never the memo's copy of the old one.
func TestDecidedSeesNewHostList(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	spec := services.FaceDetect()
	tb.run(func() {
		if _, err := tb.cloud.LaunchInstance("xl-1", cloudsim.ExtraLargeSpec("S3")); err != nil {
			t.Error(err)
			return
		}
		// The object lives on the netbook and the atom asks: neither hosts
		// fdet, so every FetchProcess below is decided.
		w, err := tb.netbook.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer w.Close()
		if err := w.CreateObject("cam.jpg", "image", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := w.StoreObject("cam.jpg", nil, 1<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()

		const cloud = CloudServiceAddr + "xl-1"
		for _, step := range []struct {
			name   string
			change func() error
			hosts  []string
		}{
			{"deploy on the desktop", func() error { return tb.desktop.DeployService(spec, "performance") }, []string{tb.desktop.Addr()}},
			{"undeploy from the desktop", func() error { return tb.desktop.UndeployService(spec) }, nil},
			{"deploy on the cloud", func() error { return tb.home.DeployCloudService(spec, "xl-1") }, []string{cloud}},
			{"deploy on the desktop again", func() error { return tb.desktop.DeployService(spec, "performance") }, []string{cloud, tb.desktop.Addr()}},
		} {
			if err := step.change(); err != nil {
				t.Errorf("%s: %v", step.name, err)
				return
			}
			// Twice: the first read after the change decodes it, the
			// second is served by the memo.
			for range 2 {
				res, err := sess.FetchProcess("cam.jpg", spec.Name, spec.ID)
				if len(step.hosts) == 0 {
					if !errors.Is(err, ErrServiceNotFound) {
						t.Errorf("%s: FetchProcess with no host returned %+v, %v", step.name, res, err)
					}
				} else if err != nil || res.Mode != ModeDecided || !slices.Contains(step.hosts, res.Target) {
					t.Errorf("%s: FetchProcess ran %v at %q (err %v), want decided on one of %q", step.name, res.Mode, res.Target, err, step.hosts)
				}
				reg, err := tb.atom.registration(spec.Name, spec.ID)
				if err != nil || !slices.Equal(reg.Nodes, step.hosts) {
					t.Errorf("%s: registration lists %q (err %v), want %q", step.name, reg.Nodes, err, step.hosts)
				}
			}
		}
	})
}
