package binary

import (
	"errors"
	"fmt"

	"wasabi/internal/leb128"
	"wasabi/internal/parallel"
	"wasabi/internal/wasm"
)

// ErrBadMagic is returned for inputs that are not wasm binaries.
var ErrBadMagic = errors.New("binary: bad magic or unsupported version")

// Decode parses a WebAssembly binary into a module AST. Function bodies are
// decoded on GOMAXPROCS workers; the module, or the error, does not depend
// on the worker count.
func Decode(data []byte) (*wasm.Module, error) { return decode(data, 0) }

// decode is Decode with function bodies decoded on par workers (0 means
// GOMAXPROCS).
func decode(data []byte, par int) (*wasm.Module, error) {
	r := &reader{data: data}
	if len(data) < 8 {
		return nil, ErrBadMagic
	}
	for i, b := range header {
		if data[i] != b {
			return nil, ErrBadMagic
		}
	}
	r.pos = 8

	m := &wasm.Module{}
	lastSection := -1
	for !r.done() {
		id := r.byte()
		size := r.u32()
		if r.err != nil {
			return nil, r.err
		}
		end := r.pos + int(size)
		if end > len(r.data) {
			return nil, fmt.Errorf("binary: section %d length %d exceeds input", id, size)
		}
		if id != secCustom {
			if int(id) <= lastSection {
				return nil, fmt.Errorf("binary: section %d out of order", id)
			}
			lastSection = int(id)
		}
		body := &reader{data: r.data[r.pos:end]}
		var err error
		switch id {
		case secCustom:
			err = decodeCustom(body, m)
		case secType:
			err = decodeTypes(body, m)
		case secImport:
			err = decodeImports(body, m)
		case secFunction:
			err = decodeFuncDecls(body, m)
		case secTable:
			err = decodeTables(body, m)
		case secMemory:
			err = decodeMemories(body, m)
		case secGlobal:
			err = decodeGlobals(body, m)
		case secExport:
			err = decodeExports(body, m)
		case secStart:
			v := body.u32()
			m.Start = &v
			err = body.err
		case secElem:
			err = decodeElems(body, m)
		case secCode:
			err = decodeCode(body, m, par)
		case secData:
			err = decodeDatas(body, m)
		default:
			err = fmt.Errorf("binary: unknown section id %d", id)
		}
		if err != nil {
			return nil, err
		}
		// Non-custom section payloads must be consumed exactly.
		if id != secCustom && body.pos != len(body.data) {
			return nil, fmt.Errorf("binary: section %d has %d trailing bytes", id, len(body.data)-body.pos)
		}
		r.pos = end
	}
	// The code section is mandatory when functions are declared.
	for i := range m.Funcs {
		if m.Funcs[i].Body == nil {
			return nil, fmt.Errorf("binary: function %d has no code (missing code section)", i)
		}
	}
	return m, nil
}

// capHint bounds slice preallocation driven by unvalidated counts from the
// input: a hostile length prefix must not force a huge allocation before the
// (necessarily shorter) payload fails to parse.
func capHint(n uint32) uint32 {
	const max = 4096
	if n > max {
		return max
	}
	return n
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) done() bool { return r.err != nil || r.pos >= len(r.data) }

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail(fmt.Errorf("binary: unexpected end of input at offset %d", r.pos))
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.data) {
		r.fail(fmt.Errorf("binary: unexpected end of input at offset %d", r.pos))
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	v, n, err := leb128.U32(r.data[r.pos:])
	if err != nil {
		r.fail(err)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) s32() int32 {
	if r.err != nil {
		return 0
	}
	v, n, err := leb128.S32(r.data[r.pos:])
	if err != nil {
		r.fail(err)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) s64() int64 {
	if r.err != nil {
		return 0
	}
	v, n, err := leb128.S64(r.data[r.pos:])
	if err != nil {
		r.fail(err)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) name() string {
	n := r.u32()
	b := r.bytes(int(n))
	return string(b)
}

func (r *reader) valType() wasm.ValType {
	t := wasm.ValType(r.byte())
	if r.err == nil && !t.Valid() {
		r.fail(fmt.Errorf("binary: invalid value type 0x%02x", byte(t)))
	}
	return t
}

func (r *reader) valTypes() []wasm.ValType {
	n := r.u32()
	if r.err != nil || n == 0 {
		return nil
	}
	ts := make([]wasm.ValType, 0, capHint(n))
	for i := uint32(0); i < n && r.err == nil; i++ {
		ts = append(ts, r.valType())
	}
	return ts
}

func (r *reader) limits() wasm.Limits {
	flag := r.byte()
	var l wasm.Limits
	l.Min = r.u32()
	if flag == 0x01 {
		l.HasMax = true
		l.Max = r.u32()
	} else if flag != 0x00 {
		r.fail(fmt.Errorf("binary: invalid limits flag 0x%02x", flag))
	}
	return l
}

func (r *reader) globalType() wasm.GlobalType {
	var gt wasm.GlobalType
	gt.Type = r.valType()
	mut := r.byte()
	gt.Mutable = mut == 0x01
	if r.err == nil && mut > 1 {
		r.fail(fmt.Errorf("binary: invalid mutability flag 0x%02x", mut))
	}
	return gt
}

func decodeTypes(r *reader, m *wasm.Module) error {
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		if form := r.byte(); form != 0x60 && r.err == nil {
			return fmt.Errorf("binary: type %d: expected functype form 0x60, got 0x%02x", i, form)
		}
		var ft wasm.FuncType
		ft.Params = r.valTypes()
		ft.Results = r.valTypes()
		m.Types = append(m.Types, ft)
	}
	return r.err
}

func decodeImports(r *reader, m *wasm.Module) error {
	n := r.u32()
	if n > 0 {
		// Allocate once for the whole section, as far as the bytes left can
		// back the count up: an import takes two name lengths, a kind and a
		// descriptor, four bytes at least.
		m.Imports = make([]wasm.Import, 0, min(int(n), (len(r.data)-r.pos)/4))
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		var imp wasm.Import
		imp.Module = r.name()
		imp.Name = r.name()
		imp.Kind = wasm.ExternKind(r.byte())
		switch imp.Kind {
		case wasm.ExternFunc:
			imp.TypeIdx = r.u32()
		case wasm.ExternTable:
			if et := r.byte(); et != 0x70 && r.err == nil {
				return fmt.Errorf("binary: import %d: unsupported elem type 0x%02x", i, et)
			}
			imp.Table = r.limits()
		case wasm.ExternMemory:
			imp.Mem = r.limits()
		case wasm.ExternGlobal:
			imp.Global = r.globalType()
		default:
			return fmt.Errorf("binary: import %d: unknown kind 0x%02x", i, byte(imp.Kind))
		}
		m.Imports = append(m.Imports, imp)
	}
	return r.err
}

func decodeFuncDecls(r *reader, m *wasm.Module) error {
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: r.u32()})
	}
	return r.err
}

func decodeTables(r *reader, m *wasm.Module) error {
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		if et := r.byte(); et != 0x70 && r.err == nil {
			return fmt.Errorf("binary: table %d: unsupported elem type 0x%02x", i, et)
		}
		m.Tables = append(m.Tables, r.limits())
	}
	return r.err
}

func decodeMemories(r *reader, m *wasm.Module) error {
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		m.Memories = append(m.Memories, r.limits())
	}
	return r.err
}

func decodeGlobals(r *reader, m *wasm.Module) error {
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		var g wasm.Global
		g.Type = r.globalType()
		var err error
		g.Init, err = r.expr()
		if err != nil {
			return err
		}
		m.Globals = append(m.Globals, g)
	}
	return r.err
}

func decodeExports(r *reader, m *wasm.Module) error {
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		var e wasm.Export
		e.Name = r.name()
		e.Kind = wasm.ExternKind(r.byte())
		e.Idx = r.u32()
		m.Exports = append(m.Exports, e)
	}
	return r.err
}

func decodeElems(r *reader, m *wasm.Module) error {
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		var e wasm.ElemSegment
		e.TableIdx = r.u32()
		var err error
		e.Offset, err = r.expr()
		if err != nil {
			return err
		}
		cnt := r.u32()
		if cnt > 0 {
			e.Funcs = make([]uint32, 0, capHint(cnt))
		}
		for j := uint32(0); j < cnt && r.err == nil; j++ {
			e.Funcs = append(e.Funcs, r.u32())
		}
		m.Elems = append(m.Elems, e)
	}
	return r.err
}

func decodeDatas(r *reader, m *wasm.Module) error {
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		var d wasm.DataSegment
		d.MemIdx = r.u32()
		var err error
		d.Offset, err = r.expr()
		if err != nil {
			return err
		}
		sz := r.u32()
		b := r.bytes(int(sz))
		d.Data = append([]byte(nil), b...)
		m.Datas = append(m.Datas, d)
	}
	return r.err
}

// decodeCode scans the code section's length-prefixed bodies, then decodes
// them on par workers. A length prefix that overruns the section, or does
// not parse, ends the scan and fails at its own index: it is reported only
// if every body before it decodes, as a sequential decoder would.
func decodeCode(r *reader, m *wasm.Module, par int) error {
	n := r.u32()
	if r.err == nil && int(n) != len(m.Funcs) {
		return fmt.Errorf("binary: code section has %d bodies but function section declared %d", n, len(m.Funcs))
	}
	bodies := make([][]byte, 0, capHint(n))
	var scanErr error
	for i := uint32(0); i < n && r.err == nil; i++ {
		size := r.u32()
		if r.err != nil {
			break
		}
		end := r.pos + int(size)
		if end > len(r.data) {
			scanErr = fmt.Errorf("binary: code body %d length exceeds section", i)
			break
		}
		bodies = append(bodies, r.data[r.pos:end])
		r.pos = end
	}
	err := parallel.For(len(bodies), par, func() *bodyScratch { return new(bodyScratch) }, nil,
		func(s *bodyScratch, i int) error {
			return s.decode(bodies[i], &m.Funcs[i], i)
		})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	return r.err
}

// bodyScratch is one decode worker's reusable buffers. A body is decoded
// into them and then copied out at its exact length, so each returned slice
// is one allocation of exactly the size it holds.
type bodyScratch struct {
	locals  []wasm.ValType
	instrs  []wasm.Instr
	targets []uint32
}

// decode decodes code body i from data into f.
func (s *bodyScratch) decode(data []byte, f *wasm.Func, i int) error {
	body := &reader{data: data}
	// Locals.
	runCount := body.u32()
	s.locals = s.locals[:0]
	total := 0
	for j := uint32(0); j < runCount && body.err == nil; j++ {
		cnt := body.u32()
		t := body.valType()
		total += int(cnt)
		if total > 1_000_000 {
			return fmt.Errorf("binary: code body %d declares too many locals", i)
		}
		for k := uint32(0); k < cnt; k++ {
			s.locals = append(s.locals, t)
		}
	}
	s.targets = s.targets[:0]
	var err error
	s.instrs, err = body.instrsUntilEndOfInput(s.instrs[:0], &s.targets)
	if err != nil {
		return fmt.Errorf("binary: code body %d: %w", i, err)
	}
	f.Locals = exact(s.locals)
	f.Body = exact(s.instrs)
	f.BrTargets = exact(s.targets)
	return nil
}

// exact copies s into a new slice of its exact length; nil when empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

func decodeCustom(r *reader, m *wasm.Module) error {
	name := r.name()
	if r.err != nil {
		return r.err
	}
	rest := r.data[r.pos:]
	if name != "name" {
		m.Customs = append(m.Customs, wasm.CustomSection{Name: name, Data: append([]byte(nil), rest...)})
		return nil
	}
	// Parse the function-names subsection; skip others.
	nr := &reader{data: rest}
	for !nr.done() {
		id := nr.byte()
		size := nr.u32()
		if nr.err != nil {
			// Tolerate malformed name sections: they are advisory.
			return nil
		}
		end := nr.pos + int(size)
		if end > len(nr.data) {
			return nil
		}
		if id == 1 {
			sr := &reader{data: nr.data[nr.pos:end]}
			cnt := sr.u32()
			names := make(map[uint32]string, capHint(cnt))
			for i := uint32(0); i < cnt && sr.err == nil; i++ {
				idx := sr.u32()
				names[idx] = sr.name()
			}
			if sr.err == nil {
				m.FuncNames = names
			}
		}
		nr.pos = end
	}
	return nil
}

// expr reads a constant expression terminated by end (inclusive). Constant
// expressions cannot legally contain br_table, so targets read here go into
// a discarded pool (validation rejects such expressions anyway).
func (r *reader) expr() ([]wasm.Instr, error) {
	var instrs []wasm.Instr
	var pool []uint32
	depth := 0
	for {
		in, err := r.instr(&pool)
		if err != nil {
			return nil, err
		}
		instrs = append(instrs, in)
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			depth++
		case wasm.OpEnd:
			if depth == 0 {
				return instrs, nil
			}
			depth--
		}
	}
}

// instrsUntilEndOfInput appends instructions to instrs until the input is
// exhausted (used for code bodies, whose length is given by the size
// prefix), returning the grown slice even on error so its buffer can be
// reused. br_table targets are appended to the function's pool.
func (r *reader) instrsUntilEndOfInput(instrs []wasm.Instr, brTargets *[]uint32) ([]wasm.Instr, error) {
	for !r.done() {
		in, err := r.instr(brTargets)
		if err != nil {
			return instrs, err
		}
		instrs = append(instrs, in)
	}
	if r.err != nil {
		return instrs, r.err
	}
	if len(instrs) == 0 || instrs[len(instrs)-1].Op != wasm.OpEnd {
		return instrs, errors.New("binary: function body not terminated by end")
	}
	return instrs, nil
}

// miscInstr decodes a 0xFC-prefixed instruction (saturating truncation,
// bulk memory) whose prefix byte has already been consumed. The subopcode
// lands in Instr.Idx. For the implemented subopcodes (trunc_sat,
// memory.copy, memory.fill) the reserved memory-index immediates must be
// zero, as the single-memory format requires; for the recognized-but-
// unimplemented subopcodes the immediates are consumed but discarded, so
// the rest of the body still decodes with correct instruction positions and
// validation rejects the instruction with a typed, positioned error.
// Subopcodes outside the known tables are not WebAssembly at all and fail
// here.
func (r *reader) miscInstr() (wasm.Instr, error) {
	off := r.pos - 1
	sub := r.u32()
	if r.err != nil {
		return wasm.Instr{}, r.err
	}
	in := wasm.MiscInstr(sub)
	switch sub {
	case 0, 1, 2, 3, 4, 5, 6, 7: // *.trunc_sat_*: no immediates
	case wasm.MiscMemoryInit: // memory.init dataidx memidx
		r.u32()
		r.byte()
	case wasm.MiscDataDrop, wasm.MiscElemDrop: // data.drop dataidx / elem.drop elemidx
		r.u32()
	case wasm.MiscMemoryCopy: // memory.copy memidx memidx
		if b := r.byte(); b != 0 && r.err == nil {
			return in, fmt.Errorf("binary: memory.copy reserved byte is 0x%02x", b)
		}
		if b := r.byte(); b != 0 && r.err == nil {
			return in, fmt.Errorf("binary: memory.copy reserved byte is 0x%02x", b)
		}
	case wasm.MiscMemoryFill: // memory.fill memidx
		if b := r.byte(); b != 0 && r.err == nil {
			return in, fmt.Errorf("binary: memory.fill reserved byte is 0x%02x", b)
		}
	case wasm.MiscTableInit, wasm.MiscTableCopy: // table.init elemidx tableidx / table.copy dst src
		r.u32()
		r.u32()
	default:
		return wasm.Instr{}, fmt.Errorf("binary: unknown 0xfc subopcode %d at offset %d", sub, off)
	}
	if r.err != nil {
		return wasm.Instr{}, r.err
	}
	return in, nil
}

func (r *reader) instr(brTargets *[]uint32) (wasm.Instr, error) {
	op := wasm.Opcode(r.byte())
	if r.err != nil {
		return wasm.Instr{}, r.err
	}
	if !op.Known() {
		if op == wasm.OpMiscPrefix {
			return r.miscInstr()
		}
		return wasm.Instr{}, fmt.Errorf("binary: unknown opcode 0x%02x at offset %d", byte(op), r.pos-1)
	}
	in := wasm.Instr{Op: op}
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		bt := wasm.BlockType(r.byte())
		if r.err == nil && bt != wasm.BlockEmpty && !wasm.ValType(bt).Valid() {
			return in, fmt.Errorf("binary: invalid block type 0x%02x", byte(bt))
		}
		in.Block = bt
	case wasm.OpBr, wasm.OpBrIf, wasm.OpCall,
		wasm.OpLocalGet, wasm.OpLocalSet, wasm.OpLocalTee,
		wasm.OpGlobalGet, wasm.OpGlobalSet:
		in.Idx = r.u32()
	case wasm.OpBrTable:
		n := r.u32()
		if r.err == nil {
			off := len(*brTargets)
			for i := uint32(0); i < n && r.err == nil; i++ {
				*brTargets = append(*brTargets, r.u32())
			}
			deflt := r.u32()
			if r.err == nil {
				in = wasm.BrTableInstr(deflt, off, int(n))
			}
		}
	case wasm.OpCallIndirect:
		in.Idx = r.u32()
		if rsvd := r.byte(); rsvd != 0 && r.err == nil {
			return in, fmt.Errorf("binary: call_indirect reserved byte is 0x%02x", rsvd)
		}
	case wasm.OpMemorySize, wasm.OpMemoryGrow:
		if rsvd := r.byte(); rsvd != 0 && r.err == nil {
			return in, fmt.Errorf("binary: memory instruction reserved byte is 0x%02x", rsvd)
		}
	case wasm.OpI32Const:
		in.Bits = uint64(uint32(r.s32()))
	case wasm.OpI64Const:
		in.Bits = uint64(r.s64())
	case wasm.OpF32Const:
		b := r.bytes(4)
		if r.err == nil {
			in.Bits = uint64(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
	case wasm.OpF64Const:
		b := r.bytes(8)
		if r.err == nil {
			var bits uint64
			for i := 0; i < 8; i++ {
				bits |= uint64(b[i]) << (8 * i)
			}
			in.Bits = bits
		}
	default:
		if op.IsLoad() || op.IsStore() {
			align := r.u32()
			offset := r.u32()
			in = wasm.MemInstr(op, align, offset)
		}
	}
	return in, r.err
}
