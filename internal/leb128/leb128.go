// Package leb128 implements the LEB128 variable-length integer encoding used
// throughout the WebAssembly binary format (unsigned for sizes and indices,
// signed for integer constants).
package leb128

import (
	"errors"
	"fmt"
)

// ErrOverflow is returned when a varint does not fit the requested width.
var ErrOverflow = errors.New("leb128: integer representation too long or too large")

// ErrUnexpectedEOF is returned when the input ends mid-varint.
var ErrUnexpectedEOF = errors.New("leb128: unexpected end of input")

// AppendU32 appends the unsigned LEB128 encoding of v to dst.
func AppendU32(dst []byte, v uint32) []byte {
	for {
		b := byte(v & 0x7f)
		v >>= 7
		if v != 0 {
			b |= 0x80
		}
		dst = append(dst, b)
		if v == 0 {
			return dst
		}
	}
}

// AppendS32 appends the signed LEB128 encoding of v to dst.
func AppendS32(dst []byte, v int32) []byte {
	return AppendS64(dst, int64(v))
}

// SizeU32 returns the encoded length of AppendU32(nil, v) without encoding.
func SizeU32(v uint32) int {
	n := 1
	for v >>= 7; v != 0; v >>= 7 {
		n++
	}
	return n
}

// SizeS32 returns the encoded length of AppendS32(nil, v) without encoding.
func SizeS32(v int32) int { return SizeS64(int64(v)) }

// SizeS64 returns the encoded length of AppendS64(nil, v) without encoding.
func SizeS64(v int64) int {
	n := 1
	for {
		b := byte(v & 0x7f)
		v >>= 7
		if (v == 0 && b&0x40 == 0) || (v == -1 && b&0x40 != 0) {
			return n
		}
		n++
	}
}

// AppendS64 appends the signed LEB128 encoding of v to dst.
func AppendS64(dst []byte, v int64) []byte {
	for {
		b := byte(v & 0x7f)
		v >>= 7 // arithmetic shift
		if (v == 0 && b&0x40 == 0) || (v == -1 && b&0x40 != 0) {
			return append(dst, b)
		}
		dst = append(dst, b|0x80)
	}
}

// U32 decodes an unsigned 32-bit varint from p, returning the value and the
// number of bytes consumed.
func U32(p []byte) (uint32, int, error) {
	v, n, err := decodeUnsigned(p, 32)
	return uint32(v), n, err
}

// S32 decodes a signed 32-bit varint from p.
func S32(p []byte) (int32, int, error) {
	v, n, err := decodeSigned(p, 32)
	return int32(v), n, err
}

// S64 decodes a signed 64-bit varint from p.
func S64(p []byte) (int64, int, error) {
	return decodeSigned(p, 64)
}

func decodeUnsigned(p []byte, bits int) (uint64, int, error) {
	var v uint64
	maxBytes := (bits + 6) / 7
	for i := 0; i < maxBytes; i++ {
		if i >= len(p) {
			return 0, 0, ErrUnexpectedEOF
		}
		b := p[i]
		payload := uint64(b & 0x7f)
		shift := uint(7 * i)
		// Check that the payload bits fit within the target width.
		if shift+7 > uint(bits) {
			excess := shift + 7 - uint(bits)
			if payload>>(7-excess) != 0 {
				return 0, 0, fmt.Errorf("%w (u%d)", ErrOverflow, bits)
			}
		}
		v |= payload << shift
		if b&0x80 == 0 {
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("%w (u%d)", ErrOverflow, bits)
}

func decodeSigned(p []byte, bits int) (int64, int, error) {
	var v int64
	maxBytes := (bits + 6) / 7
	for i := 0; i < maxBytes; i++ {
		if i >= len(p) {
			return 0, 0, ErrUnexpectedEOF
		}
		b := p[i]
		payload := int64(b & 0x7f)
		shift := uint(7 * i)
		if shift+7 > uint(bits) {
			// The remaining high bits must be a sign extension.
			excess := shift + 7 - uint(bits)
			signBits := payload >> (6 - excess) // includes the sign bit
			mask := int64(1)<<(excess+1) - 1
			if signBits != 0 && signBits != mask {
				return 0, 0, fmt.Errorf("%w (s%d)", ErrOverflow, bits)
			}
		}
		v |= payload << shift
		if b&0x80 == 0 {
			// Sign-extend from bit 7*i+6.
			shift += 7
			if shift < 64 && b&0x40 != 0 {
				v |= -1 << shift
			}
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("%w (s%d)", ErrOverflow, bits)
}
