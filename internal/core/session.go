package core

import (
	"fmt"
	"strings"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/objstore"
	"cloud4home/internal/xenchan"
)

// Session is an application's connection to VStore++ from its guest VM.
// "Applications using VStore++ API reside in guest virtual machines ...
// All requests are passed to the VStore++ component residing in the
// control domain via shared memory-based communication channels" (§III).
type Session struct {
	node     *Node
	domainID uint16
	chn      *xenchan.Channel

	created   map[string]objstore.Object // objects created but not yet stored
	principal string                     // identity for access control
}

// OpenSession boots a guest domain connection: the shared-memory channel
// handshake runs immediately.
func (n *Node) OpenSession() (*Session, error) {
	chn, err := xenchan.Open(n.clock, n.cfg.Channel)
	if err != nil {
		return nil, err
	}
	n.domains++
	return &Session{
		node:     n,
		domainID: n.domains,
		chn:      chn,
		created:  make(map[string]objstore.Object),
	}, nil
}

// Close releases the session's channel.
func (s *Session) Close() {
	s.chn.Close()
}

// Node returns the node hosting this session.
func (s *Session) Node() *Node { return s.node }

// DomainID returns the guest VM's domain identifier.
func (s *Session) DomainID() uint16 { return s.domainID }

// sendCommand charges the cost of one command packet crossing the
// guest↔dom0 boundary ("Commands are usually less than 50 bytes"). The
// packet is encoded on the stack; the channel copies it out.
//
// c4h:hotpath
func (s *Session) sendCommand(t command.Type, serviceID uint32, data string) error {
	pkt := command.Packet{
		Type:      t,
		ServiceID: serviceID,
		DomainID:  s.domainID,
		ShmRef:    uint32(s.domainID), // the session's grant reference
		Data:      []byte(data),
	}
	var wire [64]byte
	buf, err := pkt.AppendBinary(wire[:0])
	if err != nil {
		return err
	}
	if _, _, err := s.chn.Transfer(buf); err != nil {
		return fmt.Errorf("core: send %s command: %w", t, err)
	}
	return nil
}

// CreateObject maps a file to an object, creating "the mandatory meta
// information, like name and type" (§III-B). It must precede StoreObject.
func (s *Session) CreateObject(name, typ string, tags []string) error {
	if name == "" {
		return fmt.Errorf("core: object needs a name")
	}
	if strings.Contains(name, shardSuffix) {
		// Bin objects under this suffix are coded shards of the name before
		// it; an application object there would be taken for one.
		return fmt.Errorf("core: object name %q contains the reserved %q", name, shardSuffix)
	}
	if err := s.sendCommand(command.TypeCreateObject, 0, name); err != nil {
		return err
	}
	s.created[name] = objstore.Object{
		Name:    name,
		Type:    typ,
		Tags:    append([]string(nil), tags...),
		Owner:   s.principal,
		Created: s.node.clock.Now(),
	}
	return nil
}

// interDomain charges a guest↔dom0 payload transfer and returns its cost.
func (s *Session) interDomain(size int64) (time.Duration, error) {
	return s.chn.TransferSize(size)
}
