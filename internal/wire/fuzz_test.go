package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrameTC feeds arbitrary byte streams to the frame reader. For
// every input it must not panic, and every call must return either an
// error or a payload — never both, never neither. A payload that reads
// back must survive a write/read round trip in the form it arrived in.
// The seed corpus under testdata/fuzz/FuzzReadFrameTC replays in plain
// `go test`; `go test -fuzz FuzzReadFrameTC ./internal/wire` explores.
func FuzzReadFrameTC(f *testing.F) {
	var legacy, traced bytes.Buffer
	_ = WriteFrame(&legacy, []byte("hello"))
	_ = WriteFrameTC(&traced, []byte("traced"), TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3, ParentID: 4, OriginNS: 5})
	f.Add(legacy.Bytes())
	f.Add(traced.Bytes())
	f.Add(append(legacy.Bytes(), traced.Bytes()...))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrameSize))
	f.Add(binary.BigEndian.AppendUint32(nil, tcFlag|MaxFrameSize+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, tc, err := ReadFrameTC(r)
			if err != nil {
				if payload != nil {
					t.Fatalf("error %v with a %d-byte payload", err, len(payload))
				}
				return
			}
			if payload == nil {
				t.Fatal("no error and no payload")
			}
			if !tc.Valid() {
				tc = TraceContext{}
			}
			var buf bytes.Buffer
			if err := WriteFrameTC(&buf, payload, tc); err != nil {
				t.Fatalf("re-encoding a %d-byte payload: %v", len(payload), err)
			}
			again, againTC, err := ReadFrameTC(&buf)
			if err != nil || !bytes.Equal(again, payload) || againTC != tc {
				t.Fatalf("round trip changed the frame: err %v", err)
			}
		}
	})
}

// FuzzDecoder drives every Decoder method, in an order the ops bytes
// choose, over an arbitrary payload. For every input it must not panic;
// every call must either fail (a sticky error and a zero value) or
// return a value, and Remaining must never grow. The seed corpus under
// testdata/fuzz/FuzzDecoder replays in plain `go test`.
func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.PutByte(7)
	e.PutUint64(1 << 40)
	e.PutInt64(-3)
	e.PutFloat64(2.5)
	e.PutBytes([]byte("raw"))
	e.PutString("name")
	e.PutStrings([]string{"a", "bc"})
	e.PutValues(map[string][]byte{"k": []byte("v")})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, e.Bytes())
	f.Add([]byte{6, 7}, binary.BigEndian.AppendUint32(nil, 1<<31))
	f.Add([]byte{7}, append(binary.BigEndian.AppendUint32(nil, 2), make([]byte, 16)...))
	f.Fuzz(func(t *testing.T, ops, payload []byte) {
		d := NewDecoder(payload)
		var firstErr error
		for _, op := range ops {
			before := d.Remaining()
			var zero bool
			switch op % 8 {
			case 0:
				zero = d.Byte() == 0
			case 1:
				zero = d.Uint64() == 0
			case 2:
				zero = d.Int64() == 0
			case 3:
				zero = d.Float64() == 0
			case 4:
				zero = d.Bytes() == nil
			case 5:
				zero = d.String() == ""
			case 6:
				zero = d.Strings() == nil
			case 7:
				zero = d.Values() == nil
			}
			if d.Remaining() > before || d.Remaining() < 0 {
				t.Fatalf("op %d: remaining %d -> %d", op%8, before, d.Remaining())
			}
			switch err := d.Err(); {
			case firstErr != nil && err != firstErr:
				t.Fatalf("op %d: sticky error %v replaced by %v", op%8, firstErr, err)
			case err != nil && !zero:
				t.Fatalf("op %d: error %v with a non-zero value", op%8, err)
			case err == nil && op%8 >= 4 && op%8 != 5 && zero:
				t.Fatalf("op %d: no error and no value", op%8)
			default:
				firstErr = err
			}
		}
	})
}
