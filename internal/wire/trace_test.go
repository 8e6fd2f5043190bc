package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceFrameRoundTrip(t *testing.T) {
	// Property: any (payload, context) pair written with WriteFrameTC
	// reads back bit-identically with ReadFrameTC, traced or not.
	f := func(payload []byte, hi, lo, span, parent uint64, origin int64) bool {
		tc := TraceContext{TraceHi: hi, TraceLo: lo, SpanID: span, ParentID: parent, OriginNS: origin}
		var buf bytes.Buffer
		if err := WriteFrameTC(&buf, payload, tc); err != nil {
			return false
		}
		got, gotTC, err := ReadFrameTC(&buf)
		if err != nil {
			return false
		}
		if !bytes.Equal(got, payload) {
			return false
		}
		if tc.Valid() {
			return gotTC == tc
		}
		return gotTC == (TraceContext{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceFrameZeroContextIsLegacy(t *testing.T) {
	// An invalid (zero trace ID) context must produce the byte-exact
	// legacy framing, so untraced sends never change the wire image.
	payload := []byte("legacy-compat")
	var legacy, traced bytes.Buffer
	if err := WriteFrame(&legacy, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameTC(&traced, payload, TraceContext{OriginNS: 42, SpanID: 7}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), traced.Bytes()) {
		t.Fatalf("zero-trace frame differs from legacy: %x vs %x", traced.Bytes(), legacy.Bytes())
	}
}

func TestLegacyReadFrameDropsContext(t *testing.T) {
	// A reader that only calls ReadFrame still gets the payload of a
	// traced frame (context dropped).
	tc := TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3, ParentID: 4, OriginNS: 5}
	var buf bytes.Buffer
	if err := WriteFrameTC(&buf, []byte("traced"), tc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "traced" {
		t.Fatalf("payload = %q", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left unread", buf.Len())
	}
}

func TestTraceFrameUnknownVersion(t *testing.T) {
	tc := TraceContext{TraceHi: 1, TraceLo: 1}
	var buf bytes.Buffer
	if err := WriteFrameTC(&buf, []byte("x"), tc); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt the extension version byte
	_, _, err := ReadFrameTC(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "trace-context version") {
		t.Fatalf("err = %v, want unknown-version error", err)
	}
}

func TestTraceFrameTruncatedExtension(t *testing.T) {
	tc := TraceContext{TraceHi: 1, TraceLo: 1}
	var buf bytes.Buffer
	if err := WriteFrameTC(&buf, []byte("x"), tc); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:10] // header word + partial extension
	_, _, err := ReadFrameTC(bytes.NewReader(raw))
	if err == nil || err == io.EOF {
		t.Fatalf("err = %v, want truncation error", err)
	}
}

func TestTraceContextValid(t *testing.T) {
	cases := []struct {
		tc   TraceContext
		want bool
	}{
		{TraceContext{}, false},
		{TraceContext{SpanID: 9, ParentID: 9, OriginNS: 9}, false},
		{TraceContext{TraceHi: 1}, true},
		{TraceContext{TraceLo: 1}, true},
	}
	for _, c := range cases {
		if got := c.tc.Valid(); got != c.want {
			t.Errorf("Valid(%+v) = %v, want %v", c.tc, got, c.want)
		}
	}
}

// TestReadFrameForgedSizeBounded pins the payload bound: a header that
// claims MaxFrameSize, followed by 8 bytes and EOF, must fail without
// sizing an allocation from the claim. Reading once allocated the full
// 16 MiB before the first payload byte arrived.
func TestReadFrameForgedSizeBounded(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var frame []byte
		if traced {
			frame = binary.BigEndian.AppendUint32(frame, tcFlag|MaxFrameSize)
			frame = append(frame, tcVersion)
			frame = append(frame, make([]byte, tcSize)...)
		} else {
			frame = binary.BigEndian.AppendUint32(frame, MaxFrameSize)
		}
		frame = append(frame, make([]byte, 8)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, _, err := ReadFrameTC(bytes.NewReader(frame))
		runtime.ReadMemStats(&after)
		if err == nil || payload != nil {
			t.Errorf("traced=%v: truncated forged frame read (%d bytes, err %v)", traced, len(payload), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("traced=%v: forged header allocated %d bytes, want at most 64 KiB", traced, grew)
		}
	}
}
