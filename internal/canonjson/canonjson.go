// Package canonjson writes and reads flat JSON records in exactly the
// bytes encoding/json's Marshal writes for them, without reflection.
// Writers append field by field: a key is a literal the caller spells, a
// value goes through AppendString, AppendStrings, AppendFloat or
// strconv's integer appenders. Readers consume the same shape left to
// right with a Decoder, which accepts only the canonical form: keys in
// the writer's order, no whitespace, no null where the writer omits a
// field, no fraction, exponent or leading zero in an integer, nothing
// after the closing brace. Whatever a Decoder accepts, json.Unmarshal
// accepts with an equal result; the callers' fuzz targets hold both
// directions against encoding/json.
package canonjson

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// AppendString appends s as a JSON string literal. A plain string is
// copied between quotes; one json.Marshal would escape (a control byte,
// a quote, a backslash, '<', '>', '&', or any non-ASCII byte, which
// covers U+2028, U+2029 and invalid UTF-8) is left to encoding/json, so
// the bytes match json.Marshal's in every case.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= 0x80 {
			q, err := json.Marshal(s)
			if err != nil {
				panic("canonjson: json.Marshal of a string: " + err.Error()) // encoding/json never fails on a string
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendStrings appends a non-nil list as a JSON array of strings.
func AppendStrings(b []byte, list []string) []byte {
	b = append(b, '[')
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, s)
	}
	return append(b, ']')
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 or from 1e21
// in magnitude, with a one-digit negative exponent unpadded. NaN and the
// infinities have no JSON form; for them b is returned unchanged with
// the error json.Marshal reports.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Decoder reads one record left to right. The first failure sticks:
// every later read is a no-op returning a zero value, and End reports it.
//
// A plain string (no escape, control byte or non-ASCII byte) is returned
// as a substring of the input, so it lives as long as the input does; a
// string literal with any of those is decoded on its own by encoding/json.
type Decoder struct {
	s   string
	pos int
	err error
}

// NewDecoder returns a decoder at the start of s.
func NewDecoder(s string) Decoder { return Decoder{s: s} }

// Fail records that the input does not continue with want, unless a
// failure is already recorded.
func (d *Decoder) Fail(want string) {
	if d.err == nil {
		d.err = fmt.Errorf("at byte %d: want %s", d.pos, want)
	}
}

// End returns the recorded failure, or one if input remains.
func (d *Decoder) End() error {
	if d.err == nil && d.pos != len(d.s) {
		d.Fail("end of input")
	}
	return d.err
}

// Opt consumes tok if the input continues with it.
func (d *Decoder) Opt(tok string) bool {
	if d.err != nil || !strings.HasPrefix(d.s[d.pos:], tok) {
		return false
	}
	d.pos += len(tok)
	return true
}

// Lit consumes tok, which the input must continue with.
func (d *Decoder) Lit(tok string) {
	if d.err == nil && !d.Opt(tok) {
		d.Fail(strconv.Quote(tok))
	}
}

// Str reads a string literal.
func (d *Decoder) Str() string {
	if d.err != nil {
		return ""
	}
	end, plain := stringEnd(d.s, d.pos)
	if end < 0 {
		d.Fail("a string")
		return ""
	}
	lit := d.s[d.pos:end]
	if plain {
		d.pos = end
		return lit[1 : len(lit)-1]
	}
	var s string
	if err := json.Unmarshal([]byte(lit), &s); err != nil {
		d.err = fmt.Errorf("at byte %d: %w", d.pos, err)
		return ""
	}
	d.pos = end
	return s
}

// stringEnd returns the index just past the string literal opening at
// s[i], or -1 if none does, and whether the literal is plain: no escape,
// control byte or non-ASCII byte, so its contents are its value.
func stringEnd(s string, i int) (end int, plain bool) {
	if i >= len(s) || s[i] != '"' {
		return -1, false
	}
	plain = true
	for i++; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			return i + 1, plain
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return -1, false
}

// digits returns the end of the JSON integer at d.pos: an optional minus
// (if signed), then 0 or digits without a leading zero. It records a
// failure and returns -1 if there is none.
func (d *Decoder) digits(signed bool) int {
	i := d.pos
	if signed && i < len(d.s) && d.s[i] == '-' {
		i++
	}
	first := i
	for i < len(d.s) && '0' <= d.s[i] && d.s[i] <= '9' {
		i++
	}
	if i == first || (d.s[first] == '0' && i > first+1) {
		d.Fail("an integer without leading zeros")
		return -1
	}
	return i
}

// Int reads a JSON integer that fits in a signed integer of the given
// bits.
func (d *Decoder) Int(bits int) int64 {
	if d.err != nil {
		return 0
	}
	end := d.digits(true)
	if end < 0 {
		return 0
	}
	v, err := strconv.ParseInt(d.s[d.pos:end], 10, bits)
	if err != nil {
		d.err = fmt.Errorf("at byte %d: %w", d.pos, err)
		return 0
	}
	d.pos = end
	return v
}

// Uint reads a JSON integer without a sign that fits in an unsigned
// integer of the given bits.
func (d *Decoder) Uint(bits int) uint64 {
	if d.err != nil {
		return 0
	}
	end := d.digits(false)
	if end < 0 {
		return 0
	}
	v, err := strconv.ParseUint(d.s[d.pos:end], 10, bits)
	if err != nil {
		d.err = fmt.Errorf("at byte %d: %w", d.pos, err)
		return 0
	}
	d.pos = end
	return v
}

// Float reads a float64 in exactly AppendFloat's form for its value.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	end := d.pos
	for end < len(d.s) && strings.IndexByte("+-.0123456789e", d.s[end]) >= 0 {
		end++
	}
	lit := d.s[d.pos:end]
	f, err := strconv.ParseFloat(lit, 64)
	var canon [32]byte
	if b, aerr := AppendFloat(canon[:0], f); err != nil || aerr != nil || string(b) != lit {
		d.Fail("a number as encoding/json writes it")
		return 0
	}
	d.pos = end
	return f
}

// Bool reads true or false.
func (d *Decoder) Bool() bool {
	if d.Opt("true") {
		return true
	}
	if !d.Opt("false") {
		d.Fail("a boolean")
	}
	return false
}

// Strs reads a non-empty array of strings into a slice sized once.
func (d *Decoder) Strs() []string {
	list := make([]string, 0, d.Open())
	for i := 0; d.Next(i); i++ {
		list = append(list, d.Str())
	}
	return list
}

// Open consumes the '[' of a non-empty array and returns its element
// count, so the caller's slice is allocated once.
func (d *Decoder) Open() int {
	n := d.arrayLen()
	d.Lit(`[`)
	return n
}

// Next reports whether element i follows: the first always must, later
// ones after a ','. Otherwise it consumes the closing ']'.
func (d *Decoder) Next(i int) bool {
	if d.err != nil {
		return false
	}
	if i == 0 || d.Opt(`,`) {
		return true
	}
	d.Lit(`]`)
	return false
}

// arrayLen counts the elements of the array opening at d.pos: the commas
// outside string literals and nested objects, plus one. It only sizes a
// slice, so a malformed array needs no care here; the parse rejects it.
func (d *Decoder) arrayLen() int {
	n, depth := 1, 0
	for i := d.pos + 1; i < len(d.s); i++ {
		switch d.s[i] {
		case '"':
			end, _ := stringEnd(d.s, i)
			if end < 0 {
				return n
			}
			i = end - 1
		case '{':
			depth++
		case '}':
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		case ']':
			return n
		}
	}
	return n
}
