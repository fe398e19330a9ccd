package leb128

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestU32RoundTrip(t *testing.T) {
	cases := []uint32{0, 1, 127, 128, 129, 0xFF, 0x3FFF, 0x4000, 1 << 20, math.MaxUint32}
	for _, v := range cases {
		enc := AppendU32(nil, v)
		got, n, err := U32(enc)
		if err != nil || got != v || n != len(enc) {
			t.Errorf("U32(%d): got %d (n=%d, err=%v), enc=%x", v, got, n, err, enc)
		}
	}
}

func TestS64RoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 63, 64, -64, -65, 127, 128, -128,
		math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		enc := AppendS64(nil, v)
		got, n, err := S64(enc)
		if err != nil || got != v || n != len(enc) {
			t.Errorf("S64(%d): got %d (n=%d, err=%v), enc=%x", v, got, n, err, enc)
		}
	}
}

// Property: every value round-trips through its encoder/decoder pair.
func TestQuickRoundTrips(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		got, n, err := U32(AppendU32(nil, v))
		return err == nil && got == v && n == len(AppendU32(nil, v))
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(v int32) bool {
		got, _, err := S32(AppendS32(nil, v))
		return err == nil && got == v
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(v int64) bool {
		got, _, err := S64(AppendS64(nil, v))
		return err == nil && got == v
	}, nil); err != nil {
		t.Error(err)
	}
}

// Property: encodings are minimal-length monotone — appending to a prefix
// never changes the decoded prefix value.
func TestEncodingLengths(t *testing.T) {
	if n := len(AppendU32(nil, 127)); n != 1 {
		t.Errorf("127 should encode in 1 byte, got %d", n)
	}
	if n := len(AppendU32(nil, 128)); n != 2 {
		t.Errorf("128 should encode in 2 bytes, got %d", n)
	}
	if n := len(AppendU32(nil, math.MaxUint32)); n != 5 {
		t.Errorf("MaxUint32 should encode in 5 bytes, got %d", n)
	}
	if n := len(AppendS64(nil, -1)); n != 1 {
		t.Errorf("-1 should encode in 1 byte, got %d", n)
	}
	if n := len(AppendS64(nil, math.MinInt64)); n != 10 {
		t.Errorf("MinInt64 should encode in 10 bytes, got %d", n)
	}
}

func TestDecodeErrors(t *testing.T) {
	// Truncated input.
	if _, _, err := U32([]byte{0x80}); !errors.Is(err, ErrUnexpectedEOF) {
		t.Errorf("truncated: got %v", err)
	}
	if _, _, err := U32(nil); !errors.Is(err, ErrUnexpectedEOF) {
		t.Errorf("empty: got %v", err)
	}
	// Too many continuation bytes for u32.
	if _, _, err := U32([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}); !errors.Is(err, ErrOverflow) {
		t.Errorf("overlong: got %v", err)
	}
	// Payload bits beyond 32.
	if _, _, err := U32([]byte{0x80, 0x80, 0x80, 0x80, 0x7F}); !errors.Is(err, ErrOverflow) {
		t.Errorf("overflow bits: got %v", err)
	}
	// Signed: high bits must be a sign extension.
	if _, _, err := S32([]byte{0x80, 0x80, 0x80, 0x80, 0x3F}); !errors.Is(err, ErrOverflow) {
		t.Errorf("bad sign extension: got %v", err)
	}
}

// Non-minimal ("padded") encodings are legal LEB128 and must decode to the
// same value; wasm producers may emit them (the paper notes Wasabi's encoder
// sometimes shrinks binaries by re-encoding minimally).
func TestNonMinimalEncodings(t *testing.T) {
	// 0 encoded in 2 bytes: 0x80 0x00.
	got, n, err := U32([]byte{0x80, 0x00})
	if err != nil || got != 0 || n != 2 {
		t.Errorf("padded zero: %d, %d, %v", got, n, err)
	}
	// -1 (s32) encoded in 5 bytes.
	gotS, n, err := S32([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	if err != nil || gotS != -1 || n != 5 {
		t.Errorf("padded -1: %d, %d, %v", gotS, n, err)
	}
}

func TestAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 16)
	out := AppendU32(buf, 300)
	if &out[0] != &buf[:1][0] {
		t.Error("AppendU32 should reuse the provided buffer capacity")
	}
	if !bytes.Equal(out, []byte{0xAC, 0x02}) {
		t.Errorf("encoding of 300 = %x", out)
	}
}
