package daemon

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"cloud4home/internal/command"
)

// MaxPayload bounds object payloads accepted over the wire (64 MB).
const MaxPayload = 64 << 20

// The read buffers per connection. A store of a payload up to 64 KB
// reaches the server whole in one read; a client reads a payload past its
// first 4 KB straight into the payload's own buffer.
const (
	serverReadBuf = 64 << 10
	clientReadBuf = 4 << 10
)

// wire is one end of a connection, the server's or the client's: a
// buffered reader, and the buffers its reads and writes reuse. Reading a
// packet or a frame the reader does not keep allocates nothing, and
// sending a message, packet and frame together, is one write.
type wire struct {
	conn net.Conn
	r    *bufio.Reader
	in   [command.MaxPacket]byte // the last packet read
	hdr  [8]byte                 // the last frame header read
	// frame holds the last frame body read by readBody.
	frame []byte
	// body is where a message's JSON is encoded before send copies it.
	body []byte
	// out holds the packet and frame header send writes.
	out []byte
	// vec and bufs hand out and a frame body to one writev.
	vec  [2][]byte
	bufs net.Buffers
}

func newWire(conn net.Conn, readBuf int) *wire {
	return &wire{conn: conn, r: bufio.NewReaderSize(conn, readBuf)}
}

// read reads one command packet; p.Data aliases the wire's buffer until
// the next read.
//
// c4h:hotpath
func (w *wire) read(p *command.Packet) error {
	return command.ReadInto(w.r, p, &w.in)
}

// readPayload reads one payload frame into a buffer of its own, for a
// reader that keeps it.
func (w *wire) readPayload() ([]byte, error) {
	return readFrameInto(w.r, &w.hdr, nil)
}

// readBody reads one frame into the wire's reused buffer; the result is
// valid until the next readBody.
//
// c4h:hotpath
func (w *wire) readBody() ([]byte, error) {
	b, err := readFrameInto(w.r, &w.hdr, w.frame[:0])
	if err != nil {
		return nil, err
	}
	w.frame = b
	return b, nil
}

// send writes one message in one write: a command packet of type t
// carrying data, followed, when frame is non-nil, by frame as a
// length-prefixed payload frame. A frame body goes out from where it is,
// beside the packet in one writev, without a copy.
//
// c4h:hotpath
func (w *wire) send(t command.Type, data, frame []byte) error {
	p := command.Packet{Type: t, Data: data}
	out, err := p.AppendBinary(w.out[:0])
	if err != nil {
		return err
	}
	if frame != nil {
		out = binary.BigEndian.AppendUint64(out, uint64(len(frame)))
	}
	w.out = out
	if len(frame) == 0 {
		_, err = w.conn.Write(out)
		return err
	}
	w.vec = [2][]byte{out, frame}
	w.bufs = w.vec[:]
	_, err = w.bufs.WriteTo(w.conn)
	w.vec[1] = nil // the frame is the caller's; keep no reference to it
	return err
}

// frameStep is the first buffer readFrame fills: a declared length is
// only trusted as far as the bytes that have actually arrived.
const frameStep = 64 << 10

// readFrame reads one length-prefixed payload frame into a buffer of its
// own.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	return readFrameInto(r, &hdr, nil)
}

// readFrameInto reads one length-prefixed payload frame, its header into
// hdr and its body into buf's backing array when that holds it (a nil
// buf never does: an empty frame reads as a non-nil empty body). A larger
// body is read in bounded steps, min(n, 64 KB) first and then doubling,
// so a header that declares a large frame costs memory only as its bytes
// arrive; a frame of at most 64 KB is one allocation of exactly n bytes.
func readFrameInto(r io.Reader, hdr *[8]byte, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("daemon: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint64(hdr[:])
	if n > MaxPayload {
		return nil, fmt.Errorf("daemon: frame of %d bytes exceeds limit", n)
	}
	if buf != nil && n <= uint64(cap(buf)) {
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("daemon: read frame body: %w", err)
		}
		return buf, nil
	}
	buf = make([]byte, min(n, frameStep))
	for filled := 0; ; {
		m, err := io.ReadFull(r, buf[filled:])
		filled += m
		if err != nil {
			return nil, fmt.Errorf("daemon: read frame body: %w", err)
		}
		if uint64(filled) == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*uint64(cap(buf))))
		copy(grown, buf)
		buf = grown
	}
}
