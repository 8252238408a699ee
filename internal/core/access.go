package core

import (
	"errors"
	"fmt"
	"slices"

	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/netsim"
	"cloud4home/internal/objstore"
)

// The paper lists "richer access control methods and policies" as the
// most notable open issue (§VII i), referencing the role-based controls
// of the authors' earlier O2S2 system. This file implements that
// extension: objects may carry an owner principal and an access list;
// enforcement is opt-in per object (an ownerless object behaves exactly
// like the base paper's prototype, which "do[es] not currently use those
// access control methods").

// ErrAccessDenied is returned when a principal may not access an object.
var ErrAccessDenied = errors.New("core: access denied")

// SetPrincipal names the identity performing this session's operations
// (e.g. "alice@netbook"). Objects created afterwards are owned by it.
func (s *Session) SetPrincipal(p string) { s.principal = p }

// Principal returns the session's identity ("" = anonymous).
func (s *Session) Principal() string { return s.principal }

// checkAccess enforces the object's ACL on principal. Unowned objects
// are open, as in the base prototype.
func (m ObjectMeta) checkAccess(principal string) error {
	if m.Owner == "" || principal == m.Owner || slices.Contains(m.ACL, principal) || slices.Contains(m.ACL, "*") {
		return nil
	}
	return fmt.Errorf("%w: %q may not access %q (owner %q)", ErrAccessDenied, principal, m.Name, m.Owner)
}

// Grant adds principals to an object's access list. Only the owner may
// change the list.
func (s *Session) Grant(name string, principals ...string) error {
	meta, _, err := s.node.getMeta(name)
	if err != nil {
		return err
	}
	if meta.Owner == "" {
		return fmt.Errorf("core: grant on %q: object has no owner to authorise the change", name)
	}
	if meta.Owner != s.principal {
		return fmt.Errorf("%w: only owner %q may grant access to %q", ErrAccessDenied, meta.Owner, name)
	}
	for _, p := range principals {
		dup := false
		for _, existing := range meta.ACL {
			if existing == p {
				dup = true
				break
			}
		}
		if !dup {
			meta.ACL = append(meta.ACL, p)
		}
	}
	return s.node.putMeta(meta)
}

// Revoke removes principals from an object's access list.
func (s *Session) Revoke(name string, principals ...string) error {
	meta, _, err := s.node.getMeta(name)
	if err != nil {
		return err
	}
	if meta.Owner != s.principal {
		return fmt.Errorf("%w: only owner %q may revoke access to %q", ErrAccessDenied, meta.Owner, name)
	}
	kept := meta.ACL[:0]
	for _, existing := range meta.ACL {
		drop := false
		for _, p := range principals {
			if existing == p {
				drop = true
				break
			}
		}
		if !drop {
			kept = append(kept, existing)
		}
	}
	meta.ACL = kept
	return s.node.putMeta(meta)
}

// DeleteObject removes an object everywhere: the holder's bin (or the
// cloud bucket) and the metadata layer. Only the owner may delete an
// owned object.
func (s *Session) DeleteObject(name string) error {
	key := ids.HashString(name)
	meta, _, err := s.node.getMetaAt(name, key)
	if err != nil {
		return err
	}
	if meta.Owner != "" && meta.Owner != s.principal {
		return fmt.Errorf("%w: only owner %q may delete %q", ErrAccessDenied, meta.Owner, name)
	}
	// drop deletes one bin object at a home node; a holder that already
	// departed simply has nothing left to delete.
	drop := func(addr, bin string) error {
		holder, ok := s.node.home.Node(addr)
		if !ok {
			return nil
		}
		if holder != s.node {
			s.node.home.net.Message(s.node.lanPathTo(holder))
		}
		if err := holder.store.Delete(bin); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
		return nil
	}
	if meta.InCloud() {
		cloud, err := s.node.home.backendFor(meta.Backend)
		if err != nil {
			return err
		}
		// A small delete request crosses the WAN.
		s.node.home.net.Message(netsim.WANUpPath(s.node.nic, cloud.UpPipe()))
		if err := cloud.Delete(meta.Name); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			return err
		}
	} else if err := drop(meta.Location, meta.Name); err != nil {
		return err
	}
	// The redundant pieces go too.
	for _, p := range meta.pieces() {
		if err := drop(p.addr, meta.pieceName(p.index)); err != nil {
			return err
		}
	}
	s.node.home.invalidateDataCaches(meta.Name)
	if err := s.node.home.kv.Delete(s.node.id, key); err != nil && !errors.Is(err, kv.ErrNotFound) {
		return err
	}
	s.node.ops.Deletes++
	return nil
}
