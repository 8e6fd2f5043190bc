package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 10000),
		// Past payloadChunk the reader grows its buffer as bytes arrive.
		bytes.Repeat([]byte{0xCD}, payloadChunk+1),
		bytes.Repeat([]byte{0xEF}, MaxFrameSize),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %v, want %v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("read past end: %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	big := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(io.Discard, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("WriteFrame oversized: %v", err)
	}
	// A corrupt header claiming an oversized frame is rejected.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("ReadFrame oversized header: %v", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("full payload")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated payload did not error")
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.PutByte(7)
	e.PutUint64(1<<63 + 5)
	e.PutInt64(-42)
	e.PutFloat64(3.14159)
	e.PutString("hello world")
	e.PutBytes([]byte{1, 2, 3})
	e.PutStrings([]string{"a", "bb", ""})
	e.PutValues(map[string][]byte{"x": {9}, "a": {1, 2}})

	d := NewDecoder(e.Bytes())
	if got := d.Byte(); got != 7 {
		t.Errorf("Byte = %d", got)
	}
	if got := d.Uint64(); got != 1<<63+5 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.String(); got != "hello world" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Strings(); !reflect.DeepEqual(got, []string{"a", "bb", ""}) {
		t.Errorf("Strings = %v", got)
	}
	got := d.Values()
	want := map[string][]byte{"x": {9}, "a": {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Values = %v, want %v", got, want)
	}
	if d.Err() != nil {
		t.Errorf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.Uint64() // too short
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v", d.Err())
	}
	// Further reads return zero values and keep the first error.
	if d.Byte() != 0 || d.String() != "" || d.Float64() != 0 {
		t.Error("reads after error not zero")
	}
	if d.Values() != nil || d.Strings() != nil || d.Bytes() != nil {
		t.Error("composite reads after error not nil")
	}
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("Err changed: %v", d.Err())
	}
}

func TestDecoderCorruptLength(t *testing.T) {
	// A length prefix larger than the remaining buffer must fail cleanly,
	// not allocate or panic.
	var e Encoder
	e.PutBytes([]byte("abc"))
	payload := e.Bytes()
	payload[3] = 0xFF // corrupt the 4-byte length
	d := NewDecoder(payload)
	if got := d.Bytes(); got != nil {
		t.Errorf("Bytes from corrupt length = %v", got)
	}
	if d.Err() == nil {
		t.Error("corrupt length not detected")
	}
}

// TestDecoderForgedCountBounded pins the count bound: a list or map
// count larger than the remaining payload can hold at the minimum
// encoded element size fails before it sizes an allocation. A 1 MB
// payload claiming one element per remaining byte once made Strings
// allocate ~17 MB and Values ~100 MB.
func TestDecoderForgedCountBounded(t *testing.T) {
	const size = 1 << 20
	payload := make([]byte, size)
	binary.BigEndian.PutUint32(payload, size-4)
	for _, tc := range []struct {
		name   string
		decode func(*Decoder) bool // reports a non-nil result
	}{
		{"Strings", func(d *Decoder) bool { return d.Strings() != nil }},
		{"Values", func(d *Decoder) bool { return d.Values() != nil }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDecoder(payload)
		got := tc.decode(d)
		runtime.ReadMemStats(&after)
		if got || !errors.Is(d.Err(), ErrShortBuffer) {
			t.Errorf("%s: forged count decoded (non-nil %v, err %v)", tc.name, got, d.Err())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: forged count allocated %d bytes, want at most 64 KiB", tc.name, grew)
		}
	}
}

// TestDecoderCountAtBound checks the bound is exact: a count of
// minimum-size elements that fills the payload still decodes.
func TestDecoderCountAtBound(t *testing.T) {
	const n = 64
	strs := make([]byte, 4+n*minStringSize)
	binary.BigEndian.PutUint32(strs, n)
	if got := NewDecoder(strs).Strings(); len(got) != n {
		t.Errorf("Strings decoded %d empty strings, want %d", len(got), n)
	}
	vals := make([]byte, 4+n*minEntrySize)
	binary.BigEndian.PutUint32(vals, n)
	d := NewDecoder(vals)
	// n empty keys collapse into one map entry; the decode must succeed.
	if got := d.Values(); len(got) != 1 || d.Err() != nil || d.Remaining() != 0 {
		t.Errorf("Values = %d entries, err %v, %d bytes left; want 1, nil, 0", len(got), d.Err(), d.Remaining())
	}
	binary.BigEndian.PutUint32(vals, n+1)
	if NewDecoder(vals).Values() != nil {
		t.Error("Values accepted a count one past the bound")
	}
}

func TestValuesDeterministicEncoding(t *testing.T) {
	m := map[string][]byte{"z": {1}, "a": {2}, "m": {3}}
	var e1, e2 Encoder
	e1.PutValues(m)
	e2.PutValues(map[string][]byte{"m": {3}, "z": {1}, "a": {2}})
	if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
		t.Error("equal maps encoded differently")
	}
}

func TestBytesReturnsCopy(t *testing.T) {
	var e Encoder
	e.PutBytes([]byte{1, 2, 3})
	payload := e.Bytes()
	d := NewDecoder(payload)
	got := d.Bytes()
	payload[5] = 99 // mutate the source buffer (offset 4 is length)
	if got[1] == 99 {
		t.Error("decoded bytes alias the payload")
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.PutString("data")
	e.Reset()
	if len(e.Bytes()) != 0 {
		t.Errorf("after Reset: %v", e.Bytes())
	}
}

func TestFloatSpecialValues(t *testing.T) {
	var e Encoder
	e.PutFloat64(math.Inf(1))
	e.PutFloat64(math.Inf(-1))
	e.PutFloat64(math.NaN())
	d := NewDecoder(e.Bytes())
	if !math.IsInf(d.Float64(), 1) || !math.IsInf(d.Float64(), -1) || !math.IsNaN(d.Float64()) {
		t.Error("special float values mangled")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(b byte, u uint64, fl float64, s string, raw []byte, m map[string][]byte) bool {
		var e Encoder
		e.PutByte(b)
		e.PutUint64(u)
		e.PutFloat64(fl)
		e.PutString(s)
		e.PutBytes(raw)
		e.PutValues(m)

		d := NewDecoder(e.Bytes())
		if d.Byte() != b || d.Uint64() != u {
			return false
		}
		gf := d.Float64()
		if gf != fl && !(math.IsNaN(gf) && math.IsNaN(fl)) {
			return false
		}
		if d.String() != s {
			return false
		}
		gb := d.Bytes()
		if len(gb) != len(raw) || !bytes.Equal(gb, raw) {
			return false
		}
		gm := d.Values()
		if len(gm) != len(m) {
			return false
		}
		for k, v := range m {
			if !bytes.Equal(gm[k], v) {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecoderRandomInputNeverPanics(t *testing.T) {
	f := func(payload []byte) bool {
		d := NewDecoder(payload)
		// Drain the payload with a mix of reads; any input must terminate
		// cleanly with either success or a sticky error.
		for d.Err() == nil && d.Remaining() > 0 {
			_ = d.Byte()
			_ = d.Bytes()
			_ = d.Values()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
