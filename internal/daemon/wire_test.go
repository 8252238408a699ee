package daemon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"cloud4home/internal/command"
)

// rawConn dials the server without a Client, for bytes a Client would not
// send.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn
}

func packet(t *testing.T, typ command.Type, data string) []byte {
	t.Helper()
	b, err := (&command.Packet{Type: typ, Data: []byte(data)}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wantErrorThenClose reads one error reply and then requires the server to
// have ended the connection rather than read on.
func wantErrorThenClose(t *testing.T, conn net.Conn) {
	t.Helper()
	resp, err := command.Read(conn)
	if err != nil {
		t.Fatalf("no error reply: %v", err)
	}
	if resp.Type != command.TypeError {
		t.Fatalf("reply %s, want %s", resp.Type, command.TypeError)
	}
	resp, err = command.Read(conn)
	if err == nil {
		t.Fatalf("connection still served after the error: got a %s reply", resp.Type)
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatal("server neither answered nor closed the connection")
	}
}

func TestRefusedFrameDoesNotSmuggleCommands(t *testing.T) {
	_, addr := startServer(t)
	conn := rawConn(t, addr)
	stats := packet(t, command.TypeResourceUpdate, "{}")
	var msg bytes.Buffer
	msg.Write(packet(t, command.TypeStore, `{"name":"big.bin","size":1,"hasPayload":true}`))
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], MaxPayload+uint64(len(stats)))
	msg.Write(hdr[:])
	msg.Write(stats) // the refused frame's "body"
	if _, err := conn.Write(msg.Bytes()); err != nil {
		t.Fatal(err)
	}
	wantErrorThenClose(t, conn)
}

func TestUndecodableStoreEndsConnection(t *testing.T) {
	_, addr := startServer(t)
	conn := rawConn(t, addr)
	var msg bytes.Buffer
	msg.Write(packet(t, command.TypeStore, `{"name":`))
	msg.Write(packet(t, command.TypeResourceUpdate, "{}"))
	if _, err := conn.Write(msg.Bytes()); err != nil {
		t.Fatal(err)
	}
	wantErrorThenClose(t, conn)
}

// largestRead serves r and records the largest buffer a reader asks it to
// fill.
type largestRead struct {
	r   io.Reader
	max int
}

func (l *largestRead) Read(p []byte) (int, error) {
	l.max = max(l.max, cap(p))
	return l.r.Read(p)
}

// TestStalledFrameHoldsNoDeclaredLength: a header declaring the largest
// allowed frame, followed by 10 bytes and a stall, must not make the
// reader allocate the declared length; closing the pipe ends the read
// with an error.
func TestStalledFrameHoldsNoDeclaredLength(t *testing.T) {
	sender, receiver := net.Pipe()
	defer receiver.Close()
	r := &largestRead{r: receiver}
	done := make(chan error, 1)
	go func() {
		_, err := readFrame(r)
		done <- err
	}()
	msg := binary.BigEndian.AppendUint64(nil, MaxPayload)
	if _, err := sender.Write(append(msg, "0123456789"...)); err != nil {
		t.Fatal(err)
	}
	// net.Pipe's Write returns once the reader has taken every byte, so the
	// reader is now waiting on a stalled sender.
	sender.Close()
	if err := <-done; err == nil {
		t.Fatal("truncated frame accepted")
	}
	if r.max > 128<<10 {
		t.Fatalf("a stalled %d-byte frame was read into a %d-byte buffer", MaxPayload, r.max)
	}
}

func FuzzReadFrame(f *testing.F) {
	frame := func(n uint64, body []byte) []byte {
		b := binary.BigEndian.AppendUint64(nil, n)
		return append(b, body...)
	}
	f.Add(frame(0, nil))
	f.Add(frame(5, []byte("hello")))
	f.Add(frame(5, []byte("hel")))
	f.Add(frame(1<<10, []byte("short")))
	f.Add(frame(MaxPayload+1, []byte("x")))
	f.Add(frame(MaxPayload, []byte("0123456789")))
	f.Add(frame(1<<63, nil))
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := &largestRead{r: bytes.NewReader(in)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readFrame(r)
		runtime.ReadMemStats(&after)
		if len(in) < 8 {
			if err == nil {
				t.Fatalf("%d-byte header accepted", len(in))
			}
			return
		}
		n := binary.BigEndian.Uint64(in)
		switch {
		case n > MaxPayload:
			if err == nil {
				t.Fatalf("frame of %d bytes accepted", n)
			}
			// Refused before allocating: only the header was read, and the
			// heap grew by the error, not the frame (the bound leaves room
			// for what the fuzzing engine allocates meanwhile).
			if r.max > 8 {
				t.Fatalf("refusing a %d-byte frame read into a %d-byte buffer", n, r.max)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("refusing a %d-byte frame allocated %d bytes", n, alloc)
			}
		case uint64(len(in)-8) < n:
			if err == nil {
				t.Fatalf("frame of %d bytes accepted from %d", n, len(in)-8)
			}
			// The declared length is trusted only as far as bytes arrive.
			if bound := max(frameStep, 2*(len(in)-8)); r.max > bound {
				t.Fatalf("truncated %d-byte frame with %d body bytes read into a %d-byte buffer", n, len(in)-8, r.max)
			}
		default:
			if err != nil {
				t.Fatalf("whole frame refused: %v", err)
			}
			if !bytes.Equal(got, in[8:8+n]) {
				t.Fatal("frame body differs from what was sent")
			}
		}
	})
}
