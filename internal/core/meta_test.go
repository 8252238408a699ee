package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// requireCodecMatchesJSON holds the hand-written codec to encoding/json,
// its oracle: Marshal writes json.Marshal's bytes, and the decoder
// accepts them with json.Unmarshal's result.
func requireCodecMatchesJSON(t *testing.T, m ObjectMeta) {
	t.Helper()
	got, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Marshal(%#v)\n got %s\nwant %s", m, got, want)
	}
	decoded, err := UnmarshalObjectMeta(got)
	if err != nil {
		t.Fatalf("UnmarshalObjectMeta rejected Marshal's output %s: %v", got, err)
	}
	var oracle ObjectMeta
	if err := json.Unmarshal(got, &oracle); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, oracle) {
		t.Fatalf("decode of %s\n got %#v\nwant %#v", got, decoded, oracle)
	}
}

// TestObjectMetaEveryFieldRoundTrips sets every field of ObjectMeta and
// ShardRef to a non-zero value by reflection, so a field added without
// codec support fails here rather than in a stored record.
func TestObjectMetaEveryFieldRoundTrips(t *testing.T) {
	var m ObjectMeta
	fill := func(v reflect.Value, seed int) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString(v.Type().Field(i).Name + "-value")
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(seed + i + 1))
			case reflect.Slice:
				if f.Type().Elem().Kind() != reflect.String {
					continue
				}
				f.Set(reflect.ValueOf([]string{"x", "y"}))
			default:
				t.Fatalf("field %s has kind %s, which the test cannot fill", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&m).Elem(), 0)
	for i := 0; i < 2; i++ {
		var s ShardRef
		fill(reflect.ValueOf(&s).Elem(), 10*i)
		m.Shards = append(m.Shards, s)
	}
	mv := reflect.ValueOf(m)
	for i := 0; i < mv.NumField(); i++ {
		if mv.Field(i).IsZero() {
			t.Fatalf("field %s left zero", mv.Type().Field(i).Name)
		}
	}
	check := func() {
		t.Helper()
		requireCodecMatchesJSON(t, m)
		if data, _ := m.Marshal(); cap(data) != len(data) {
			t.Fatalf("Marshal sized its buffer %d for %d bytes: %s", cap(data), len(data), data)
		}
	}
	check()

	// Every field zeroed again, one at a time.
	for i := 0; i < mv.NumField(); i++ {
		one := reflect.ValueOf(&m).Elem()
		saved := reflect.ValueOf(one.Field(i).Interface())
		one.Field(i).Set(reflect.Zero(one.Field(i).Type()))
		check()
		one.Field(i).Set(saved)
	}
}

// TestObjectMetaDecoderRejectsWhatMarshalNeverWrites pins the decoder's
// strictness: it takes only Marshal's shape, not all of JSON.
func TestObjectMetaDecoderRejectsWhatMarshalNeverWrites(t *testing.T) {
	for _, record := range []string{
		``,
		`{}`,
		`{"name":"a","size":7}`,
		`{"name":"a","size":7,"location":"n00:9000"} `,
		`{"name":"a","size":7,"location":"n00:9000"}x`,
		`{"name":"a", "size":7,"location":"n00:9000"}`,
		`{"size":7,"name":"a","location":"n00:9000"}`,
		`{"name":"a","size":7,"location":"n00:9000","type":"bin"}`,
		`{"name":"a","size":7,"location":"n00:9000","bin":"x","bin":"y"}`,
		`{"name":"a","size":7,"location":"n00:9000","color":"red"}`,
		`{"name":"a","size":07,"location":"n00:9000"}`,
		`{"name":"a","size":7.0,"location":"n00:9000"}`,
		`{"name":"a","size":7e0,"location":"n00:9000"}`,
		`{"name":"a","size":-,"location":"n00:9000"}`,
		`{"name":"a","size":99999999999999999999,"location":"n00:9000"}`,
		`{"name":null,"size":7,"location":"n00:9000"}`,
		`{"name":"a","size":7,"tags":null,"location":"n00:9000"}`,
		`{"name":"a","size":7,"tags":[],"location":"n00:9000"}`,
		`{"name":"a","size":7,"tags":["t",],"location":"n00:9000"}`,
		`{"name":"a\x01","size":7,"location":"n00:9000"}`,
		`{"name":"a\q","size":7,"location":"n00:9000"}`,
		`{"name":"a,"size":7,"location":"n00:9000"}`,
		`{"name":"a","size":7,"location":"n00:9000","shards":[{"addr":"n01:9000","i":0}]}`,
	} {
		if m, err := UnmarshalObjectMeta([]byte(record)); err == nil {
			t.Errorf("UnmarshalObjectMeta(%q) accepted: %#v", record, m)
		}
	}
}

// homeTraceMeta is a record shaped like home-trace's: name, type, one
// tag, size, location and bin, all plain strings.
var homeTraceMeta = ObjectMeta{
	Name:     "cam03/frame-000123.jpg",
	Type:     "image",
	Size:     1 << 20,
	Tags:     []string{"surveillance"},
	Location: "n02:9000",
	Bin:      "mandatory",
}

var (
	sinkRecord []byte
	sinkMeta   ObjectMeta
)

// TestObjectMetaCodecAllocs bounds the codec's allocations: one buffer to
// encode; one string copy of the record to decode, plus one slice per
// non-empty list.
func TestObjectMetaCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	data, err := homeTraceMeta.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { sinkRecord, _ = homeTraceMeta.Marshal() }); n != 1 {
		t.Errorf("Marshal: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkMeta, _ = UnmarshalObjectMeta(data) }); n != 2 {
		t.Errorf("UnmarshalObjectMeta with one list: %v allocations, want 2", n)
	}
	bare := homeTraceMeta
	bare.Tags = nil
	if data, err = bare.Marshal(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { sinkMeta, _ = UnmarshalObjectMeta(data) }); n != 1 {
		t.Errorf("UnmarshalObjectMeta with no list: %v allocations, want 1", n)
	}
}

// BenchmarkObjectMetaCodec is the codec's profiling entry point, on a
// home-trace-shaped record.
func BenchmarkObjectMetaCodec(b *testing.B) {
	data, err := homeTraceMeta.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRecord, _ = homeTraceMeta.Marshal()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkMeta, _ = UnmarshalObjectMeta(data)
		}
	})
}

// FuzzObjectMetaCodec holds the codec to encoding/json both ways. Any
// record the decoder accepts, json.Unmarshal accepts with an equal
// result; and a record built from the fuzzed strings, integers and list
// lengths (shape's four 2-bit fields: tags, replicas, ACL, shards)
// encodes to json.Marshal's bytes and decodes to json.Unmarshal's value.
func FuzzObjectMetaCodec(f *testing.F) {
	f.Add([]byte(`{"name":"a.bin","size":7,"location":"n00:9000"}`), "a<b>&c", " ", "\xff", int64(-1), 2, uint8(0xe4))
	f.Fuzz(func(t *testing.T, record []byte, a, b, c string, size int64, idx int, shape uint8) {
		if got, err := UnmarshalObjectMeta(record); err == nil {
			var want ObjectMeta
			if err := json.Unmarshal(record, &want); err != nil {
				t.Fatalf("UnmarshalObjectMeta accepted %q, which json.Unmarshal rejects: %v", record, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decode of %q\n got %#v\nwant %#v", record, got, want)
			}
		}

		strs := []string{a, b, c, a + c}
		list := func(field uint8) []string { return strs[:shape>>(2*field)&3] }
		m := ObjectMeta{
			Name: a, Type: b, Size: size, Tags: list(0), Location: c,
			Bin: b + c, Replicas: list(1), Owner: c + a, ACL: list(2),
			Backend: a + b, ErasureK: idx, ErasureN: -idx,
		}
		for i := uint8(0); i < shape>>6; i++ {
			m.Shards = append(m.Shards, ShardRef{Index: idx + int(i), Addr: strs[i]})
		}
		requireCodecMatchesJSON(t, m)

		// appendTo writes Marshal's bytes after a prefix it leaves alone.
		want, _ := m.Marshal()
		k := len(record) / 2
		prefix := record[:k:k]
		if got := m.appendTo(prefix); !bytes.Equal(got[:k], record[:k]) || !bytes.Equal(got[k:], want) {
			t.Fatalf("appendTo(%q) = %q, want the prefix followed by %q", record[:k], got, want)
		}
	})
}
