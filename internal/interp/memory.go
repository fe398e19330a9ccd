package interp

import (
	"wasabi/internal/wasm"
)

// Memory is an instantiated linear memory. HasMax records whether the module
// declared a maximum at all: a declared maximum of 0 is a real limit (the
// memory may never grow), which is different from "no maximum". Cap is the
// host-side ceiling beyond the declared maximum: instantiation sets it from
// Config.MaxMemoryPages (0 means DefaultMaxMemoryPages) so a module without
// a declared maximum still cannot grow the host without bound.
type Memory struct {
	Data   []byte
	MaxPgs uint32 // the declared maximum; meaningful only when HasMax
	HasMax bool
	Cap    uint32 // host-configured page ceiling; 0 means DefaultMaxMemoryPages
}

// NewMemory allocates a memory with the given limits.
func NewMemory(l wasm.Limits) *Memory {
	return &Memory{
		Data:   make([]byte, int(l.Min)*wasm.PageSize),
		MaxPgs: l.Max,
		HasMax: l.HasMax,
	}
}

// Pages returns the current size in 64 KiB pages.
func (m *Memory) Pages() uint32 { return uint32(len(m.Data) / wasm.PageSize) }

// Grow adds delta pages, returning the previous page count, or -1 on failure
// (the memory.grow semantics). Growth fails past the declared maximum — even
// a declared maximum of 0 — or past the host-configured cap.
func (m *Memory) Grow(delta uint32) int32 {
	old := m.Pages()
	newPages := uint64(old) + uint64(delta)
	limit := uint64(DefaultMaxMemoryPages)
	if m.Cap != 0 {
		limit = uint64(m.Cap)
	}
	if m.HasMax && uint64(m.MaxPgs) < limit {
		limit = uint64(m.MaxPgs)
	}
	if newPages > limit {
		return -1
	}
	if delta > 0 {
		m.Data = append(m.Data, make([]byte, int(delta)*wasm.PageSize)...)
	}
	return int32(old)
}

// effective address computation with overflow checking; traps when the
// access [addr+offset, addr+offset+size) is out of bounds.
func (m *Memory) span(addr uint32, offset uint32, size uint32) []byte {
	ea := uint64(addr) + uint64(offset)
	if ea+uint64(size) > uint64(len(m.Data)) {
		trapf(TrapOutOfBounds, "address %d+%d size %d exceeds memory size %d", addr, offset, size, len(m.Data))
	}
	return m.Data[ea : ea+uint64(size)]
}

func (m *Memory) load(addr, offset, size uint32) uint64 {
	b := m.span(addr, offset, size)
	var v uint64
	switch size {
	case 1:
		v = uint64(b[0])
	case 2:
		v = uint64(b[0]) | uint64(b[1])<<8
	case 4:
		v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
	case 8:
		v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	}
	return v
}

func (m *Memory) store(addr, offset, size uint32, v uint64) {
	b := m.span(addr, offset, size)
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		b[0], b[1] = byte(v), byte(v>>8)
	case 4:
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	case 8:
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	}
}

// copyWithin implements memory.copy: bounds are checked up front (a trap
// leaves memory untouched, even for len 0 past the end) and overlapping
// ranges copy with memmove semantics.
func (m *Memory) copyWithin(dst, src, n uint32) {
	if uint64(dst)+uint64(n) > uint64(len(m.Data)) || uint64(src)+uint64(n) > uint64(len(m.Data)) {
		trapf(TrapOutOfBounds, "memory.copy dst %d src %d len %d exceeds memory size %d", dst, src, n, len(m.Data))
	}
	copy(m.Data[dst:uint64(dst)+uint64(n)], m.Data[src:uint64(src)+uint64(n)])
}

// fill implements memory.fill: bounds are checked up front, then [dst,
// dst+n) is set to val.
func (m *Memory) fill(dst uint32, val byte, n uint32) {
	if uint64(dst)+uint64(n) > uint64(len(m.Data)) {
		trapf(TrapOutOfBounds, "memory.fill dst %d len %d exceeds memory size %d", dst, n, len(m.Data))
	}
	b := m.Data[dst : uint64(dst)+uint64(n)]
	for i := range b {
		b[i] = val
	}
}

// Table is an instantiated funcref table; -1 marks uninitialized slots.
type Table struct {
	Elems []int64
}

// NewTable allocates a table of the declared minimum size.
func NewTable(l wasm.Limits) *Table {
	t := &Table{Elems: make([]int64, l.Min)}
	for i := range t.Elems {
		t.Elems[i] = -1
	}
	return t
}
