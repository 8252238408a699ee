// Package command implements the command-based interface of §IV: "Every
// method call in VStore++ is converted into a command. The command based
// interface is used for communicating between virtual machines and remote
// nodes. Each command packet consists of packet length, command type, the
// requesting service ID, VMs domain ID, shared memory reference and
// command data. Commands are usually less than 50 bytes and use TCP/IP
// sockets."
//
// The binary layout (big endian) is:
//
//	offset size field
//	0      2    payload length (bytes of Data)
//	2      1    command type
//	3      4    requesting service ID
//	7      2    VM domain ID
//	9      4    shared memory reference
//	13     n    command data (object name, processing command, ...)
package command

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Type identifies a command.
type Type uint8

// Command types covering every VStore++ operation (§III-B).
const (
	TypeCreateObject Type = iota + 1
	TypeStore
	TypeFetch
	TypeProcess
	TypeFetchProcess
	TypeAck
	TypeError
	TypeResourceUpdate
	TypeServiceRegister
)

// The daemon's own requests reuse two of the paper's command types; the
// wire values are unchanged, these names say what c4hd does with them.
const (
	// TypeStats asks for per-node operation counters and machine state.
	TypeStats = TypeResourceUpdate
	// TypeList asks for the home's nodes and stored objects.
	TypeList = TypeServiceRegister
)

// String renders the command type name.
func (t Type) String() string {
	switch t {
	case TypeCreateObject:
		return "create-object"
	case TypeStore:
		return "store"
	case TypeFetch:
		return "fetch"
	case TypeProcess:
		return "process"
	case TypeFetchProcess:
		return "fetch-process"
	case TypeAck:
		return "ack"
	case TypeError:
		return "error"
	case TypeResourceUpdate:
		return "resource-update"
	case TypeServiceRegister:
		return "service-register"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

func (t Type) valid() bool {
	return t >= TypeCreateObject && t <= TypeServiceRegister
}

const (
	headerSize = 13
	// MaxData bounds the command payload. Commands carry names and small
	// arguments, never object contents (those flow over xenchan or data
	// sockets), so the bound is deliberately tight.
	MaxData = 4096
	// MaxPacket is the largest encoded packet: ReadInto's buffer.
	MaxPacket = headerSize + MaxData
)

// Errors returned by the codec.
var (
	ErrTooLarge    = errors.New("command: payload exceeds MaxData")
	ErrShortPacket = errors.New("command: short packet")
	ErrBadType     = errors.New("command: unknown command type")
)

// Packet is one command.
type Packet struct {
	Type      Type
	ServiceID uint32
	DomainID  uint16
	ShmRef    uint32
	Data      []byte
}

// WireSize returns the encoded size in bytes.
func (p *Packet) WireSize() int { return headerSize + len(p.Data) }

// MarshalBinary encodes the packet into a buffer of its own.
func (p *Packet) MarshalBinary() ([]byte, error) {
	return p.AppendBinary(make([]byte, 0, p.WireSize()))
}

// AppendBinary appends the packet's encoding to dst and returns the
// extended buffer, so a sender can encode into a buffer it reuses or
// keeps on its stack. On error dst is returned unchanged.
func (p *Packet) AppendBinary(dst []byte) ([]byte, error) {
	if len(p.Data) > MaxData {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(p.Data))
	}
	if !p.Type.valid() {
		return dst, fmt.Errorf("%w: %d", ErrBadType, uint8(p.Type))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Data)))
	dst = append(dst, uint8(p.Type))
	dst = binary.BigEndian.AppendUint32(dst, p.ServiceID)
	dst = binary.BigEndian.AppendUint16(dst, p.DomainID)
	dst = binary.BigEndian.AppendUint32(dst, p.ShmRef)
	return append(dst, p.Data...), nil
}

// UnmarshalBinary decodes a packet from buf, which must contain exactly
// one packet.
func (p *Packet) UnmarshalBinary(buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("%w: %d bytes", ErrShortPacket, len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf[0:2]))
	if n > MaxData {
		return fmt.Errorf("%w: declared %d bytes", ErrTooLarge, n)
	}
	if len(buf) != headerSize+n {
		return fmt.Errorf("%w: declared %d data bytes, have %d", ErrShortPacket, n, len(buf)-headerSize)
	}
	if err := p.header(buf); err != nil {
		return err
	}
	p.Data = make([]byte, n)
	copy(p.Data, buf[headerSize:])
	return nil
}

// header decodes the fixed fields of the packet that buf starts with.
func (p *Packet) header(buf []byte) error {
	t := Type(buf[2])
	if !t.valid() {
		return fmt.Errorf("%w: %d", ErrBadType, buf[2])
	}
	p.Type = t
	p.ServiceID = binary.BigEndian.Uint32(buf[3:7])
	p.DomainID = binary.BigEndian.Uint16(buf[7:9])
	p.ShmRef = binary.BigEndian.Uint32(buf[9:13])
	return nil
}

// Write encodes the packet onto w (a TCP connection or xenchan stream).
func Write(w io.Writer, p *Packet) error {
	buf, err := p.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Read decodes one packet from r.
func Read(r io.Reader) (*Packet, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("command: read header: %w", err)
	}
	n := int(binary.BigEndian.Uint16(hdr[0:2]))
	if n > MaxData {
		return nil, fmt.Errorf("%w: declared %d bytes", ErrTooLarge, n)
	}
	buf := make([]byte, headerSize+n)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
		return nil, fmt.Errorf("command: read payload: %w", err)
	}
	var p Packet
	if err := p.UnmarshalBinary(buf); err != nil {
		return nil, err
	}
	return &p, nil
}

// ReadInto decodes one packet from r like Read, into buf instead of
// buffers of its own: p.Data aliases buf until buf is next written. A
// connection that reads through one buffer for its lifetime so frames
// its packets without allocating.
//
// c4h:hotpath
func ReadInto(r io.Reader, p *Packet, buf *[MaxPacket]byte) error {
	if _, err := io.ReadFull(r, buf[:headerSize]); err != nil {
		return fmt.Errorf("command: read header: %w", err)
	}
	n := int(binary.BigEndian.Uint16(buf[0:2]))
	if n > MaxData {
		return fmt.Errorf("%w: declared %d bytes", ErrTooLarge, n)
	}
	if _, err := io.ReadFull(r, buf[headerSize:headerSize+n]); err != nil {
		return fmt.Errorf("command: read payload: %w", err)
	}
	if err := p.header(buf[:]); err != nil {
		return err
	}
	p.Data = buf[headerSize : headerSize+n]
	return nil
}
