package command

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	tests := []Packet{
		{Type: TypeStore, ServiceID: 0, DomainID: 1, ShmRef: 7, Data: []byte("video.avi")},
		{Type: TypeFetch, ServiceID: 42, DomainID: 2, ShmRef: 0, Data: nil},
		{Type: TypeProcess, ServiceID: 9, DomainID: 3, ShmRef: 99, Data: []byte("fdet img-001.jpg")},
		{Type: TypeAck, ServiceID: 0, DomainID: 0, ShmRef: 0, Data: []byte{}},
		{Type: TypeServiceRegister, ServiceID: 1 << 30, DomainID: 65535, ShmRef: 1<<32 - 1, Data: []byte("x264")},
	}
	for _, want := range tests {
		buf, err := want.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %v: %v", want.Type, err)
		}
		var got Packet
		if err := got.UnmarshalBinary(buf); err != nil {
			t.Fatalf("unmarshal %v: %v", want.Type, err)
		}
		if got.Type != want.Type || got.ServiceID != want.ServiceID ||
			got.DomainID != want.DomainID || got.ShmRef != want.ShmRef ||
			!bytes.Equal(got.Data, want.Data) {
			t.Fatalf("round trip mismatch: %+v -> %+v", want, got)
		}
	}
}

func TestTypicalCommandUnder50Bytes(t *testing.T) {
	// The paper: "Commands are usually less than 50 bytes". A store
	// command with a typical object name must fit that envelope.
	p := Packet{Type: TypeStore, ServiceID: 3, DomainID: 1, ShmRef: 12, Data: []byte("cam0/frame-000017.jpg")}
	if p.WireSize() >= 50 {
		t.Fatalf("typical command is %d bytes, want < 50", p.WireSize())
	}
}

func TestMarshalRejectsOversizeAndBadType(t *testing.T) {
	p := Packet{Type: TypeStore, Data: make([]byte, MaxData+1)}
	if _, err := p.MarshalBinary(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize: got %v, want ErrTooLarge", err)
	}
	p = Packet{Type: Type(200), Data: nil}
	if _, err := p.MarshalBinary(); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad type: got %v, want ErrBadType", err)
	}
}

func TestUnmarshalRejectsCorruptInput(t *testing.T) {
	var p Packet
	if err := p.UnmarshalBinary([]byte{1, 2, 3}); !errors.Is(err, ErrShortPacket) {
		t.Fatalf("short: got %v, want ErrShortPacket", err)
	}
	// Declared length longer than buffer.
	good, _ := (&Packet{Type: TypeFetch, Data: []byte("abc")}).MarshalBinary()
	bad := make([]byte, len(good))
	copy(bad, good)
	bad[1] = 200 // claim 200 data bytes
	if err := p.UnmarshalBinary(bad); !errors.Is(err, ErrShortPacket) {
		t.Fatalf("length lie: got %v, want ErrShortPacket", err)
	}
	// Unknown type byte.
	copy(bad, good)
	bad[2] = 0
	if err := p.UnmarshalBinary(bad); !errors.Is(err, ErrBadType) {
		t.Fatalf("zero type: got %v, want ErrBadType", err)
	}
}

func TestStreamReadWrite(t *testing.T) {
	var buf bytes.Buffer
	want := []Packet{
		{Type: TypeCreateObject, DomainID: 1, Data: []byte("obj-A")},
		{Type: TypeStore, DomainID: 1, ShmRef: 3, Data: []byte("obj-A")},
		{Type: TypeAck},
	}
	for i := range want {
		if err := Write(&buf, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("read packet %d: %v", i, err)
		}
		if got.Type != want[i].Type || !bytes.Equal(got.Data, want[i].Data) {
			t.Fatalf("packet %d mismatch: %+v vs %+v", i, got, want[i])
		}
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("Read on drained stream should fail")
	}
}

func TestReadTruncatedStream(t *testing.T) {
	good, _ := (&Packet{Type: TypeFetch, Data: []byte("abcdef")}).MarshalBinary()
	for cut := 1; cut < len(good); cut++ {
		_, err := Read(bytes.NewReader(good[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) && !errors.Is(err, ErrShortPacket) {
			// Any error is acceptable, but it must be an error.
			t.Logf("truncation at %d: %v", cut, err)
		}
	}
}

func TestTypeStringsAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for tt := TypeCreateObject; tt <= TypeServiceRegister; tt++ {
		s := tt.String()
		if seen[s] {
			t.Fatalf("duplicate type string %q", s)
		}
		seen[s] = true
	}
	if Type(0).String() == TypeStore.String() {
		t.Fatal("invalid type must not collide with a valid name")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(typeRaw uint8, svc uint32, dom uint16, shm uint32, data []byte) bool {
		tt := Type(typeRaw%uint8(TypeServiceRegister)) + 1
		if len(data) > MaxData {
			data = data[:MaxData]
		}
		want := Packet{Type: tt, ServiceID: svc, DomainID: dom, ShmRef: shm, Data: data}
		buf, err := want.MarshalBinary()
		if err != nil {
			return false
		}
		var got Packet
		if err := got.UnmarshalBinary(buf); err != nil {
			return false
		}
		return got.Type == want.Type && got.ServiceID == want.ServiceID &&
			got.DomainID == want.DomainID && got.ShmRef == want.ShmRef &&
			bytes.Equal(got.Data, want.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
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

func FuzzCommandRead(f *testing.F) {
	for _, p := range []Packet{
		{Type: TypeStore, ServiceID: 3, DomainID: 1, ShmRef: 12, Data: []byte(`{"name":"cam0/frame.jpg","hasPayload":true}`)},
		{Type: TypeResourceUpdate, Data: []byte("{}")},
		{Type: TypeAck},
		{Type: TypeServiceRegister, Data: make([]byte, MaxData)},
	} {
		buf, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{0xff, 0xff, byte(TypeFetch), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // declares 65535 bytes
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 'x'})                // type 0
	f.Add([]byte{0, 4, byte(TypeStore), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 'a'})  // short body
	f.Fuzz(func(t *testing.T, in []byte) {
		r := &largestRead{r: bytes.NewReader(in)}
		p, err := Read(r)
		// Read fills the header, then the n data bytes it declares, in
		// what it allocated: headerSize+n must stay within headerSize+MaxData.
		if r.max > MaxData {
			t.Fatalf("Read allocated a %d-byte buffer for %d input bytes", r.max, len(in))
		}
		// ReadInto accepts what Read accepts, with the same packet.
		var buf [MaxPacket]byte
		var q Packet
		if errInto := ReadInto(bytes.NewReader(in), &q, &buf); (errInto == nil) != (err == nil) {
			t.Fatalf("Read: %v, ReadInto: %v", err, errInto)
		} else if err == nil && (q.Type != p.Type || q.ServiceID != p.ServiceID ||
			q.DomainID != p.DomainID || q.ShmRef != p.ShmRef || !bytes.Equal(q.Data, p.Data)) {
			t.Fatalf("ReadInto read %+v, Read %+v", q, *p)
		}
		if err != nil {
			return
		}
		out, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted packet does not marshal: %v", err)
		}
		if !bytes.Equal(out, in[:len(out)]) {
			t.Fatalf("round trip changed the packet: %x -> %x", in[:len(out)], out)
		}
		// AppendBinary writes MarshalBinary's bytes after whatever the
		// buffer holds, and leaves that prefix alone.
		for _, k := range []int{0, 1, len(in) / 2, len(in)} {
			prefix := in[:k:k]
			got, err := p.AppendBinary(prefix)
			if err != nil {
				t.Fatalf("accepted packet does not append: %v", err)
			}
			if !bytes.Equal(got[:k], in[:k]) || !bytes.Equal(got[k:], out) {
				t.Fatalf("AppendBinary(in[:%d]) = %x, want %x followed by %x", k, got, in[:k], out)
			}
		}
	})
}

// TestAppendBinaryAllocations: encoding into a buffer with room for the
// packet allocates nothing.
func TestAppendBinaryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := Packet{Type: TypeFetch, ServiceID: 7, DomainID: 2, ShmRef: 2, Data: []byte("obj/12345")}
	buf := make([]byte, 0, p.WireSize())
	if n := testing.AllocsPerRun(100, func() {
		out, err := p.AppendBinary(buf[:0])
		if err != nil || len(out) != p.WireSize() {
			t.Fatalf("AppendBinary: %d bytes, %v", len(out), err)
		}
	}); n != 0 {
		t.Errorf("AppendBinary into a sized buffer: %v allocations, want 0", n)
	}
}

// TestReadIntoAllocations: reading a stream of packets through one buffer
// allocates nothing.
func TestReadIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	pkt, err := (&Packet{Type: TypeFetch, ServiceID: 7, Data: []byte(`{"name":"obj/12345"}`)}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.Repeat(pkt, 101)
	r := bytes.NewReader(stream)
	buf := new([MaxPacket]byte)
	var p Packet
	if n := testing.AllocsPerRun(100, func() {
		if err := ReadInto(r, &p, buf); err != nil || string(p.Data) != `{"name":"obj/12345"}` {
			t.Fatalf("ReadInto: %q, %v", p.Data, err)
		}
	}); n != 0 {
		t.Errorf("ReadInto: %v allocations, want 0", n)
	}
}
